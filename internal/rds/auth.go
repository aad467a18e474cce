package rds

import (
	"crypto/hmac"
	"crypto/md5"
	"errors"
	"fmt"
	"sync"
)

// Authentication errors.
var (
	// ErrUnknownPrincipal reports a message from a principal with no
	// registered secret.
	ErrUnknownPrincipal = errors.New("rds: unknown principal")
	// ErrBadDigest reports a digest verification failure.
	ErrBadDigest = errors.New("rds: MD5 digest verification failed")
)

// Authenticator implements the optional MD5 digest authentication the
// SOS implementation added to RDS. Each principal shares a secret with
// the server; a message's digest is MD5 computed over the shared secret
// concatenated with the message encoding (digest field emptied) —
// the keyed-digest construction of its era (predating HMAC).
//
// A nil *Authenticator disables authentication (the first prototype's
// behavior).
type Authenticator struct {
	mu      sync.RWMutex
	secrets map[string][]byte
}

// NewAuthenticator returns an Authenticator with no principals.
func NewAuthenticator() *Authenticator {
	return &Authenticator{secrets: make(map[string][]byte)}
}

// SetSecret registers (or rotates) a principal's shared secret.
func (a *Authenticator) SetSecret(principal, secret string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.secrets[principal] = []byte(secret)
}

func (a *Authenticator) secret(principal string) ([]byte, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s, ok := a.secrets[principal]
	return s, ok
}

// digestBufs holds the buffers digest encodes into, so that signing
// and verifying allocate nothing once warm.
var digestBufs = sync.Pool{New: func() any { return new([]byte) }}

// digest returns the MD5 of secret followed by m's encoding with its
// digest left out.
func digest(secret []byte, m *Message) [md5.Size]byte {
	bp := digestBufs.Get().(*[]byte)
	saved := m.Digest
	m.Digest = nil
	b := m.AppendEncode(append((*bp)[:0], secret...))
	m.Digest = saved
	sum := md5.Sum(b)
	if cap(b) <= maxRetainedOut {
		*bp = b[:0]
		digestBufs.Put(bp)
	}
	return sum
}

// Sign computes and installs m's digest for the principal already set
// on the message. A nil Authenticator is a no-op.
func (a *Authenticator) Sign(m *Message) error {
	if a == nil {
		return nil
	}
	sec, ok := a.secret(m.Principal)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPrincipal, m.Principal)
	}
	sum := digest(sec, m)
	m.Digest = sum[:]
	return nil
}

// Verify checks m's digest. A nil Authenticator accepts everything.
func (a *Authenticator) Verify(m *Message) error {
	if a == nil {
		return nil
	}
	sec, ok := a.secret(m.Principal)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPrincipal, m.Principal)
	}
	want := digest(sec, m)
	if !hmac.Equal(want[:], m.Digest) { // constant-time compare
		return ErrBadDigest
	}
	return nil
}
