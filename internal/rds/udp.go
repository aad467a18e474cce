package rds

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The first prototype ran RDS "over the BSD socket interface and uses
// either tcp connections or udp datagrams". This file supplies the
// datagram flavor: each request and reply is one datagram (no framing
// needed), suited to short control operations on lossy-but-fast paths.
// Event subscriptions are stream-only; a datagram client polls with
// Query instead.

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
		s.stats.requests.Add(1)
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

// PacketClient is a datagram RDS client: every operation is one
// request/response datagram pair, and ops the op table marks idempotent
// are retransmitted on timeout (the classic UDP management pattern);
// the rest get one attempt, since a lost reply may hide an effect a
// second copy would repeat. It supports every operation except
// Subscribe.
type PacketClient struct {
	principal string
	auth      *Authenticator
	timeout   time.Duration
	retries   int

	mu   sync.Mutex
	conn net.Conn
	seq  uint32
}

// PacketOption configures a PacketClient.
type PacketOption func(*PacketClient)

// WithPacketAuth signs requests with the principal's secret.
func WithPacketAuth(auth *Authenticator) PacketOption {
	return func(c *PacketClient) { c.auth = auth }
}

// WithPacketTimeout sets the per-attempt timeout (default 2s).
func WithPacketTimeout(d time.Duration) PacketOption {
	return func(c *PacketClient) { c.timeout = d }
}

// WithPacketRetries sets an idempotent op's retransmissions after the
// first attempt (default 2).
func WithPacketRetries(n int) PacketOption {
	return func(c *PacketClient) { c.retries = n }
}

// DialPacket connects a datagram client to addr ("host:port").
func DialPacket(addr, principal string, opts ...PacketOption) (*PacketClient, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rds: dial udp %s: %w", addr, err)
	}
	c := &PacketClient{principal: principal, conn: conn, timeout: 2 * time.Second, retries: 2}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Close releases the socket.
func (c *PacketClient) Close() error { return c.conn.Close() }

func (c *PacketClient) do(ctx context.Context, req *Message) (*Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	req.Seq = c.seq
	req.Principal = c.principal
	if err := c.auth.Sign(req); err != nil {
		return nil, err
	}
	pkt := req.Encode()
	if len(pkt) > maxDatagram {
		return nil, fmt.Errorf("rds: request of %d bytes exceeds datagram limit (use the TCP transport)", len(pkt))
	}
	attempts := 1
	if canRetry(req) {
		attempts += c.retries
	}
	buf := make([]byte, maxDatagram)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(c.timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		_ = c.conn.SetDeadline(deadline)
		if _, err := c.conn.Write(pkt); err != nil {
			lastErr = err
			continue
		}
		// Only the deadline ends an attempt: a late reply to an earlier
		// request, or garbage, is skipped rather than answered with a
		// re-send, which a mutating op does not get.
		for {
			n, err := c.conn.Read(buf)
			if err != nil {
				lastErr = err
				break
			}
			if resp, err := Decode(buf[:n]); err == nil && resp.Op == OpReply && resp.Seq == req.Seq {
				if !resp.OK {
					return nil, replyErr(req.Op, resp)
				}
				return resp, nil
			}
		}
	}
	return nil, fmt.Errorf("rds: datagram exchange failed after %d attempts: %w", attempts, lastErr)
}

// Delegate transfers a DPL program (must fit one datagram).
func (c *PacketClient) Delegate(ctx context.Context, name, source string) error {
	_, err := c.do(ctx, &Message{Op: OpDelegate, Name: name, Lang: "dpl", Payload: []byte(source)})
	return err
}

// Instantiate starts an instance and returns its id.
func (c *PacketClient) Instantiate(ctx context.Context, dp, entry string, args ...string) (string, error) {
	m, err := c.do(ctx, &Message{Op: OpInstantiate, Name: dp, Entry: entry, Args: args})
	if err != nil {
		return "", err
	}
	return m.Name, nil
}

// Control applies suspend / resume / terminate.
func (c *PacketClient) Control(ctx context.Context, dpiID, action string) error {
	_, err := c.do(ctx, &Message{Op: OpControl, Name: dpiID, Entry: action})
	return err
}

// Send delivers a mailbox message.
func (c *PacketClient) Send(ctx context.Context, dpiID, payload string) error {
	_, err := c.do(ctx, &Message{Op: OpSend, Name: dpiID, Payload: []byte(payload)})
	return err
}

// Query fetches instance status.
func (c *PacketClient) Query(ctx context.Context, dpiID string) ([]InfoRec, error) {
	m, err := c.do(ctx, &Message{Op: OpQuery, Name: dpiID})
	if err != nil {
		return nil, err
	}
	return m.Infos, nil
}

// DeleteDP removes a program.
func (c *PacketClient) DeleteDP(ctx context.Context, name string) error {
	_, err := c.do(ctx, &Message{Op: OpDeleteDP, Name: name})
	return err
}

// Eval performs one-shot remote evaluation.
func (c *PacketClient) Eval(ctx context.Context, source, entry string, args ...string) (string, error) {
	m, err := c.do(ctx, &Message{Op: OpEval, Entry: entry, Payload: []byte(source), Args: args})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}
