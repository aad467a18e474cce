package rds

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// The first prototype ran RDS "over the BSD socket interface and uses
// either tcp connections or udp datagrams". This file supplies the
// server's datagram flavor: each request and reply is one bare encoded
// message in one datagram (no framing needed), suited to short control
// operations on lossy-but-fast paths. The client side is the one
// Client, dialed as "udp://host:port". Event subscriptions are
// stream-only; a datagram client polls with Query instead.

// maxDatagram bounds one RDS datagram (a UDP-practical limit; large
// delegations should use the TCP transport).
const maxDatagram = 60 * 1024

// ServePacket answers single-datagram RDS requests on pc until ctx is
// cancelled, each through the same request path as ServeConn.
// Subscription requests are refused. The conn is closed on return.
func (s *Server) ServePacket(ctx context.Context, pc net.PacketConn) error {
	defer pc.Close()
	go func() {
		<-ctx.Done()
		pc.Close()
	}()
	buf := make([]byte, maxDatagram)
	var out []byte // reused reply-encode buffer
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("rds: packet read: %w", err)
		}
		s.stats.bytesIn.Add(uint64(n))
		req, err := Decode(buf[:n])
		if err != nil {
			continue // undecodable datagrams are dropped
		}
		resp := s.handle(ctx, req)
		if req.Op == OpSubscribe && resp.OK {
			resp = reply(req, errors.New("rds: subscriptions need the stream transport"))
		}
		out = resp.AppendEncode(out[:0])
		if len(out) > maxDatagram {
			resp = reply(req, fmt.Errorf("rds: reply of %d bytes exceeds datagram limit", len(out)))
			out = resp.AppendEncode(out[:0])
		}
		s.stats.bytesOut.Add(uint64(len(out)))
		if _, err := pc.WriteTo(out, addr); err != nil && ctx.Err() == nil {
			return fmt.Errorf("rds: packet write: %w", err)
		}
	}
}
