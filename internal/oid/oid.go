// Package oid implements ASN.1 object identifiers as used by SNMP and
// the MbD management information base.
//
// An OID is an immutable sequence of non-negative integer arcs. The
// package provides parsing, formatting, lexicographic ordering (the
// order that governs SNMP GetNext traversal), and prefix tests.
package oid

import (
	"fmt"
	"strconv"
	"strings"
)

// OID is an ASN.1 object identifier. The zero value is the empty OID.
//
// Callers must treat an OID as immutable; mutating the underlying slice
// of an OID shared with this package has undefined results. Use Clone
// when a private copy is needed.
type OID []uint32

// Parse converts a dotted-decimal string such as "1.3.6.1.2.1.1.1.0"
// into an OID. A leading dot is accepted ("." prefix is common in SNMP
// tooling). The empty string parses to the empty OID.
func Parse(s string) (OID, error) {
	s = strings.TrimPrefix(s, ".")
	if s == "" {
		return nil, nil
	}
	o := make(OID, 0, strings.Count(s, ".")+1)
	for rest, more := s, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ".")
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("oid: invalid arc %q in %q: %w", p, s, err)
		}
		o = append(o, uint32(v))
	}
	return o, nil
}

// MustParse is like Parse but panics on error. It is intended for
// package-level OID constants.
func MustParse(s string) OID {
	o, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return o
}

// String renders the OID in dotted-decimal form without a leading dot.
func (o OID) String() string {
	var buf [64]byte
	return string(o.AppendTo(buf[:0]))
}

// AppendTo appends the OID's dotted-decimal form to b.
func (o OID) AppendTo(b []byte) []byte {
	for i, arc := range o {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(arc), 10)
	}
	return b
}

// Clone returns a copy of o that shares no storage with it.
func (o OID) Clone() OID {
	if o == nil {
		return nil
	}
	c := make(OID, len(o))
	copy(c, o)
	return c
}

// Compare returns -1, 0, or 1 according to the lexicographic order of
// the two OIDs. A proper prefix sorts before any of its extensions;
// this is exactly the ordering SNMP GetNext traversal follows.
func (o OID) Compare(p OID) int {
	n := len(o)
	if len(p) < n {
		n = len(p)
	}
	for i := 0; i < n; i++ {
		switch {
		case o[i] < p[i]:
			return -1
		case o[i] > p[i]:
			return 1
		}
	}
	switch {
	case len(o) < len(p):
		return -1
	case len(o) > len(p):
		return 1
	}
	return 0
}

// Equal reports whether the two OIDs are identical.
func (o OID) Equal(p OID) bool { return o.Compare(p) == 0 }

// HasPrefix reports whether p is a prefix of o (every OID is a prefix
// of itself).
func (o OID) HasPrefix(p OID) bool {
	if len(p) > len(o) {
		return false
	}
	for i := range p {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Append returns a new OID consisting of o followed by arcs. The
// receiver is not modified.
func (o OID) Append(arcs ...uint32) OID {
	c := make(OID, len(o), len(o)+len(arcs))
	copy(c, o)
	return append(c, arcs...)
}

// Index returns the instance suffix of o under prefix p, or nil and
// false when p is not a proper prefix of o.
func (o OID) Index(p OID) (OID, bool) {
	if !o.HasPrefix(p) || len(o) == len(p) {
		return nil, false
	}
	return o[len(p):].Clone(), true
}
