package frag

import "math/rand"

// The lag pair of math/rand's additive lagged-Fibonacci generator
// (Mitchell and Reeds): its seeded source keeps the last rngLen
// outputs, and output n is y[n-rngLen] + y[n-rngTap] mod 2^64.
const (
	rngLen = 607
	rngTap = 273
)

// stream is a rand.Source64 that returns exactly the values of
// rand.NewSource(seed), read from a block of the last rngLen outputs
// that is refilled all at once. Holding the block in output order
// lets flips read 64 draws with no call per draw; math/rand's source
// keeps the same register as a ring it steps one draw at a time.
//
// Go 1's compatibility promise freezes the seeded streams of
// math/rand (a changed stream would change every seeded program), so
// the copy cannot drift; TestStreamMatchesMathRand holds it to the
// original.
type stream struct {
	v   [rngLen]uint64 // the current block: y[base], ..., y[base+rngLen-1]
	pos int            // index in v of the next draw
}

// newStream returns the stream of rand.NewSource(seed).
func newStream(seed int64) *stream {
	s := new(stream)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: the first block is copied from a fresh
// math/rand source, which owns the seeding tables.
func (s *stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.v {
		s.v[i] = src.Uint64()
	}
	s.pos = 0
}

// refill replaces the block by the next rngLen outputs. Output
// base+rngLen+i is v[i] + y[base+rngLen+i-rngTap]; that second term is
// the old v[i+rngLen-rngTap] while i < rngTap and the new v[i-rngTap]
// after.
func (s *stream) refill() {
	v := &s.v
	for i := range rngTap {
		v[i] += v[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		v[i] += v[i-rngTap]
	}
	s.pos = 0
}

// Uint64 implements rand.Source64.
func (s *stream) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.v[s.pos]
	s.pos++
	return x
}

// Int63 implements rand.Source, as math/rand does: the draw with its
// top bit cleared.
func (s *stream) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// flips returns the fragmenter's next 64 page flips as one word: bit i
// is set when bits 32..34 of draw i are all zero, that is when
// rand.New(src).Intn(8) would return 0 (Intn(8) is Int63()>>32 & 7), a
// chance of one in eight.
func (s *stream) flips() uint64 {
	if s.pos+64 <= rngLen {
		w := flipBits(s.v[s.pos : s.pos+64])
		s.pos += 64
		return w
	}
	// The window crosses into the next block.
	k := rngLen - s.pos
	w := flipBits(s.v[s.pos:])
	s.refill()
	s.pos = 64 - k
	return w | flipBits(s.v[:s.pos])<<k
}

// flipBits sets bit i of its result when bits 32..34 of d[i] are all
// zero, for up to 64 draws, without a branch per draw.
func flipBits(d []uint64) uint64 {
	var w uint64
	for i, x := range d {
		// x&(7<<32) is below 2^35, so subtracting 1 borrows into bit
		// 63 only from 0. i&63 spares the shift its range check.
		w |= ((x&(7<<32) - 1) >> 63) << (i & 63)
	}
	return w
}
