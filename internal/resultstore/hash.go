package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Hash accumulates the canonical config hash of one scenario. Every
// component is framed as (len(name), name, len(value), value), so
// adjacent fields can never alias each other ("ab"+"c" vs "a"+"bc") and
// the digest is a function of the labeled component sequence alone —
// stable across processes, platforms and Go versions.
//
// The component order is fixed by the caller; internal/sweep's golden
// hash test pins the resulting digests so any accidental change to the
// recipe (which would silently invalidate or, worse, mis-hit every
// store) fails loudly.
type Hash struct {
	h hash.Hash
}

// NewHash starts a canonical config hash. The schema version is
// deliberately NOT part of the key: a key identifies a configuration,
// while the schema version (recorded inside each entry) governs whether
// a stored outcome is still servable. Keeping keys stable across schema
// bumps means a bump's re-simulation overwrites old entries in place
// instead of orphaning them.
func NewHash() *Hash {
	return &Hash{h: sha256.New()}
}

func (h *Hash) frame(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.h.Write(n[:])
	h.h.Write(b)
}

// Bytes folds in a named binary component.
func (h *Hash) Bytes(name string, v []byte) {
	h.frame([]byte(name))
	h.frame(v)
}

// String folds in a named string component.
func (h *Hash) String(name, v string) { h.Bytes(name, []byte(v)) }

// Int folds in a named integer component.
func (h *Hash) Int(name string, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Bytes(name, b[:])
}

// Bool folds in a named flag.
func (h *Hash) Bool(name string, v bool) {
	b := []byte{0}
	if v {
		b[0] = 1
	}
	h.Bytes(name, b)
}

// Float folds in a named float component via its IEEE-754 bits.
func (h *Hash) Float(name string, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Bytes(name, b[:])
}

// Sum finalizes the digest as lowercase hex. The Hash must not be used
// afterwards.
func (h *Hash) Sum() string {
	return hex.EncodeToString(h.h.Sum(nil))
}
