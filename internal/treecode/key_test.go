package treecode

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// RootKey is the key of the root cell.
const RootKey Key = 1

// Child returns the key of the oct-th child: the key algebra the
// Morton keys follow, which the key tests check.
func (k Key) Child(oct int) Key { return k<<3 | Key(oct&7) }

// TestKeySortMatchesComparator: the one key sort (every tree build's and
// Decompose's) lands on exactly the order of a comparator sort on
// (key, index) — over random keys, many coincident
// particles, keys that differ only in the top or only in the bottom
// byte (one radix pass each), and at n = 1 and 2.
func TestKeySortMatchesComparator(t *testing.T) {
	rng := sim.NewRNG(5)
	gen := func(n int, key func(i int) Key) []Key {
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = key(i)
		}
		return keys
	}
	const n = 3000
	cases := map[string][]Key{
		"random":     gen(n, func(int) Key { return Key(rng.Uint64()) }),
		"coincident": gen(n, func(int) Key { return RootKey<<60 | Key(rng.Intn(5)) }),
		"top-byte":   gen(n, func(int) Key { return Key(rng.Intn(256))<<56 | 0x0123456789abcd }),
		"low-byte":   gen(n, func(int) Key { return RootKey<<63 | Key(rng.Intn(256)) }),
		"one":        {RootKey << 63},
		"two-equal":  {7, 7},
		"two-desc":   {9, 3},
	}
	for name, keys := range cases {
		want := make([]int, len(keys))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			ka, kb := keys[want[a]], keys[want[b]]
			if ka != kb {
				return ka < kb
			}
			return want[a] < want[b]
		})
		got := make([]int, len(keys))
		sortKeyPerm(got, keys, make([]int, len(keys)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d holds %d, comparator order has %d", name, i, got[i], want[i])
			}
		}
	}
}
