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
	h   hash.Hash
	buf [hashChunk]byte // framed bytes not yet written to h
	n   int
}

// hashChunk is how many framed bytes a Hash gathers before writing them
// to SHA-256. A scenario key's whole stream fits, so it is hashed in one
// write at Sum.
const hashChunk = 512

// NewHash starts a canonical config hash. The schema version is
// deliberately NOT part of the key: a key identifies a configuration,
// while the schema version (recorded inside each entry) governs whether
// a stored outcome is still servable. Keeping keys stable across schema
// bumps means a bump's re-simulation overwrites old entries in place
// instead of orphaning them.
func NewHash() *Hash {
	return &Hash{h: sha256.New()}
}

func (h *Hash) flush() {
	h.h.Write(h.buf[:h.n])
	h.n = 0
}

// frame appends (len(b), b) to the pending stream, writing the buffer to
// SHA-256 whenever it fills. It takes strings and byte slices alike so
// no component is converted, and nothing allocates.
func frame[T string | []byte](h *Hash, b T) {
	if h.n+8 > hashChunk {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], uint64(len(b)))
	h.n += 8
	for len(b) > 0 {
		if h.n == hashChunk {
			h.flush()
		}
		c := copy(h.buf[h.n:], b)
		h.n += c
		b = b[c:]
	}
}

// Bytes folds in a named binary component.
func (h *Hash) Bytes(name string, v []byte) {
	frame(h, name)
	frame(h, v)
}

// String folds in a named string component.
func (h *Hash) String(name, v string) {
	frame(h, name)
	frame(h, v)
}

// Int folds in a named integer component.
func (h *Hash) Int(name string, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Bytes(name, b[:])
}

// Bool folds in a named flag.
func (h *Hash) Bool(name string, v bool) {
	b := "\x00"
	if v {
		b = "\x01"
	}
	h.String(name, b)
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
	h.flush()
	return hex.EncodeToString(h.h.Sum(h.buf[:0]))
}
