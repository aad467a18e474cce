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
// records that rebuild more than MaxFrame payload bytes.
func (m *Message) AppendFrame(dst []byte) ([]byte, error) {
	start := len(dst)
	c := ber.Encoder(append(dst, 0, 0, 0, 0))
	m.visit(&c)
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
