package rds

import (
	"encoding/binary"
	"fmt"
	"io"

	"mbd/internal/ber"
)

// MaxFrame bounds a single RDS frame (16 MiB) — large enough for any
// realistic delegated program, small enough to stop memory abuse.
const MaxFrame = 16 << 20

// ReadFrame reads one length-prefixed message body from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("rds: incoming frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// FrameSize returns the on-the-wire size of a message body including
// the length prefix — the unit the experiment harness accounts.
func FrameSize(body []byte) int { return 4 + len(body) }

// AppendFrame appends m's complete wire frame — the 4-byte length
// prefix followed by the BER-encoded body — to dst, returning the
// extended slice. Encoding body and prefix into one buffer lets a
// connection writer batch many frames into a single write. It refuses a
// message no receiver would accept: a body past MaxFrame, or event
// records that rebuild more than MaxFrame payload bytes. The frame
// stands alone, as the first event frame on a connection does; see
// AppendFrameAfter for one that follows another.
func (m *Message) AppendFrame(dst []byte) ([]byte, error) { return m.AppendFrameAfter(dst, Event{}) }

// AppendFrameAfter is AppendFrame for a frame that follows last, the
// last event of the event frame before it on the same stream
// connection; the zero Event stands for none. An OpEvent message's
// first event then carries only the DPI, kind and principal that differ
// from last's, and its time as a delta from last's. Frames of any other
// op, which never change the context, are the same after any last.
func (m *Message) AppendFrameAfter(dst []byte, last Event) ([]byte, error) {
	start := len(dst)
	c := ber.Encoder(append(dst, 0, 0, 0, 0))
	m.visit(&c, &last)
	if err := c.Err(); err != nil {
		return nil, err
	}
	dst = c.Bytes()
	if err := endFrame(dst, start); err != nil {
		return nil, err
	}
	return dst, nil
}

// endFrame fills in the length prefix of the frame that starts at
// dst[start], refusing a body past MaxFrame.
func endFrame(dst []byte, start int) error {
	n := len(dst) - start - 4
	if n > MaxFrame {
		return fmt.Errorf("rds: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(n))
	return nil
}
