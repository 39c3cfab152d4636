package frag

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// streamSeeds are the edge seeds of math/rand's seeding (0 maps to a
// fixed stand-in, negatives wrap, large seeds reduce mod 2^31-1) plus
// the forms the engine seeds its fragmenters with: host Seed+101 and
// guest vmSeedBase(i)+202, where vmSeedBase(i) is Seed+1000*i.
var streamSeeds = []int64{0, -1, math.MaxInt64, 1<<40 + 12345, 1 + 101, 7 + 101, 1 + 202, 7 + 2000 + 202}

// checkOps replays ops against the stream and against a fresh
// rand.NewSource(seed): 'u' draws Uint64, 'i' draws Int63 and 'f' draws
// 64 page flips, compared with 64 calls of rand.Rand.Intn(8) == 0 over
// the reference source. Any other byte is skipped. It returns the two
// sources, positioned after the ops, so callers can keep drawing.
func checkOps(t testing.TB, seed int64, ops string) (*stream, rand.Source64) {
	t.Helper()
	s := newStream(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	refRng := rand.New(ref)
	draws := 0
	for k, op := range []byte(ops) {
		switch op {
		case 'u':
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d op %d (draw %d): Uint64 = %#x, want %#x", seed, k, draws, got, want)
			}
			draws++
		case 'i':
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d op %d (draw %d): Int63 = %#x, want %#x", seed, k, draws, got, want)
			}
			draws++
		case 'f':
			var want uint64
			for i := range 64 {
				if refRng.Intn(8) == 0 {
					want |= 1 << i
				}
			}
			if got := s.flips(); got != want {
				t.Fatalf("seed %d op %d (draws %d..%d): flips = %#x, want %#x", seed, k, draws, draws+63, got, want)
			}
			draws += 64
		}
	}
	return s, ref
}

// TestStreamMatchesMathRand holds the fragmenter's stream to
// math/rand's seeded source over more than three refill blocks, with
// flip windows that start at every offset class a mixed prefix gives
// them, so windows straddle the block boundary, and checks that a
// rand.Rand over the stream shuffles as one over math/rand's source
// does.
func TestStreamMatchesMathRand(t *testing.T) {
	mixed := strings.Repeat("fuif", 20) + strings.Repeat("iu", 100) + strings.Repeat("f", 25)
	for _, seed := range streamSeeds {
		for _, prefix := range []int{0, 1, 13, 31, 63, rngLen - 1, rngLen} {
			ops := strings.Repeat("u", prefix) + strings.Repeat("f", 30) + mixed
			s, ref := checkOps(t, seed, ops)

			n := 700
			got, want := make([]int, n), make([]int, n)
			for i := range got {
				got[i], want[i] = i, i
			}
			rand.New(s).Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })
			rand.New(ref).Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d prefix %d: shuffle differs at %d: %d, want %d", seed, prefix, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzStreamMatchesMathRand replays an arbitrary op string (see
// checkOps) at an arbitrary seed, and then 30 more flips (1,920 draws)
// so every input crosses at least three refills.
func FuzzStreamMatchesMathRand(f *testing.F) {
	for _, seed := range streamSeeds {
		f.Add(seed, "ufi")
	}
	f.Add(int64(42), strings.Repeat("u", rngLen-5)+"ffiuf")
	f.Fuzz(func(t *testing.T, seed int64, ops string) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkOps(t, seed, ops+strings.Repeat("f", 30))
	})
}
