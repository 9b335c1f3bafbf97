// Package treecode implements the N-body library of Warren & Salmon
// ("A Parallel Hashed Oct-Tree N-Body Algorithm", Supercomputing '93)
// that the paper's treecode benchmark (§3.5) runs: Morton (Z-order)
// keys, a bucketed octree with monopole (and optional quadrupole)
// moments, Barnes–Hut multipole acceptance, and a parallel force
// computation with locally-essential-tree exchange over the mpi
// substrate. Keys order the sources and partition them into cells; no
// key is stored per node and no key→node hash table is kept: every
// traversal follows the nodes' preorder ropes. The paper notes the
// original library is ~20,000 lines of C; this package is its Go
// re-implementation at the fidelity the reproduction needs.
package treecode

import (
	"fmt"
	"math"
)

// KeyBits is the number of bits per dimension in a Morton key; 3×21 = 63
// bits plus a sentinel bit marking key length.
const KeyBits = 21

// Key is a Morton key with a high sentinel bit. The root's key is 1;
// each level appends three bits (the octant).
type Key uint64

// Box is a cubic spatial domain.
type Box struct {
	CX, CY, CZ float64 // centre
	Half       float64 // half side length
}

// Contains reports whether the point lies inside the box (half-open).
func (b Box) Contains(x, y, z float64) bool {
	return x >= b.CX-b.Half && x < b.CX+b.Half &&
		y >= b.CY-b.Half && y < b.CY+b.Half &&
		z >= b.CZ-b.Half && z < b.CZ+b.Half
}

// Octant returns the child box for an octant index (bit 2 = x half,
// bit 1 = y half, bit 0 = z half).
func (b Box) Octant(oct int) Box {
	h := b.Half / 2
	c := Box{CX: b.CX - h, CY: b.CY - h, CZ: b.CZ - h, Half: h}
	if oct&4 != 0 {
		c.CX += b.Half
	}
	if oct&2 != 0 {
		c.CY += b.Half
	}
	if oct&1 != 0 {
		c.CZ += b.Half
	}
	return c
}

// minDist2 returns the squared distance from a point to the closest
// point of the box (0 if inside).
func (b Box) minDist2(x, y, z float64) float64 {
	dx := max(0, math.Abs(x-b.CX)-b.Half)
	dy := max(0, math.Abs(y-b.CY)-b.Half)
	dz := max(0, math.Abs(z-b.CZ)-b.Half)
	return dx*dx + dy*dy + dz*dz
}

// MinDist returns the distance from a point to the closest point of the
// box (0 if inside).
func (b Box) MinDist(x, y, z float64) float64 {
	return math.Sqrt(b.minDist2(x, y, z))
}

// BoundingBox returns a cube containing all points, expanded slightly so
// boundary particles stay strictly inside.
func BoundingBox(xs, ys, zs []float64) (Box, error) {
	if len(xs) == 0 {
		return Box{}, fmt.Errorf("treecode: no particles")
	}
	xmin, xmax := xs[0], xs[0]
	ymin, ymax := ys[0], ys[0]
	zmin, zmax := zs[0], zs[0]
	for i := 1; i < len(xs); i++ {
		xmin, xmax = min(xmin, xs[i]), max(xmax, xs[i])
		ymin, ymax = min(ymin, ys[i]), max(ymax, ys[i])
		zmin, zmax = min(zmin, zs[i]), max(zmax, zs[i])
	}
	half := max(xmax-xmin, max(ymax-ymin, zmax-zmin)) / 2
	if half == 0 {
		half = 1
	}
	half *= 1.0001
	return Box{
		CX:   (xmin + xmax) / 2,
		CY:   (ymin + ymax) / 2,
		CZ:   (zmin + zmax) / 2,
		Half: half,
	}, nil
}

// sourceBounds is BoundingBox over a source slice without the
// coordinate-array staging: the same per-axis Min/Max fold in the same
// input order with the same expansion, so the box — and every key and
// node box derived from it — is bit-identical to BoundingBox's. Every
// tree build uses it, so a build into reused storage finds its root
// without allocating.
func sourceBounds(sources []Source) (Box, error) {
	if len(sources) == 0 {
		return Box{}, fmt.Errorf("treecode: no particles")
	}
	xmin, xmax := sources[0].X, sources[0].X
	ymin, ymax := sources[0].Y, sources[0].Y
	zmin, zmax := sources[0].Z, sources[0].Z
	for i := 1; i < len(sources); i++ {
		xmin, xmax = min(xmin, sources[i].X), max(xmax, sources[i].X)
		ymin, ymax = min(ymin, sources[i].Y), max(ymax, sources[i].Y)
		zmin, zmax = min(zmin, sources[i].Z), max(zmax, sources[i].Z)
	}
	half := max(xmax-xmin, max(ymax-ymin, zmax-zmin)) / 2
	if half == 0 {
		half = 1
	}
	half *= 1.0001
	return Box{
		CX:   (xmin + xmax) / 2,
		CY:   (ymin + ymax) / 2,
		CZ:   (zmin + zmax) / 2,
		Half: half,
	}, nil
}

// sortKeyPerm fills perm with the indices 0..len(perm)-1 in (keys[i], i)
// order — the treecode's one key sort, used by every tree build and by
// Decompose. It is an LSD byte radix: starting from the identity, each
// stable counting pass keeps index order among equal bytes, so the
// result is exactly the order of a comparator sort on (key, index). A
// pass whose byte is the same for every key is skipped. keys is indexed
// by input index; scratch is the second buffer, of at least len(perm)
// elements.
func sortKeyPerm(perm []int, keys []Key, scratch []int) {
	n := len(perm)
	if n == 0 {
		return
	}
	src, dst := perm, scratch[:n]
	for i := range src {
		src[i] = i
	}
	for shift := uint(0); shift < 64; shift += 8 {
		var count [256]int
		for _, j := range src {
			count[(keys[j]>>shift)&0xff]++
		}
		if count[(keys[src[0]]>>shift)&0xff] == n {
			continue
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, j := range src {
			b := (keys[j] >> shift) & 0xff
			dst[count[b]] = j
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
}

// MortonKey maps a position inside root to its full-depth Morton key.
func MortonKey(x, y, z float64, root Box) Key {
	ix := quantize(x, root.CX, root.Half)
	iy := quantize(y, root.CY, root.Half)
	iz := quantize(z, root.CZ, root.Half)
	k := Key(1) << (3 * KeyBits)
	k |= Key(interleave3(ix))<<2 | Key(interleave3(iy))<<1 | Key(interleave3(iz))
	return k
}

func quantize(v, c, half float64) uint32 {
	f := (v - c + half) / (2 * half) // [0,1)
	q := int64(f * (1 << KeyBits))
	if q < 0 {
		q = 0
	}
	if q >= 1<<KeyBits {
		q = 1<<KeyBits - 1
	}
	return uint32(q)
}

// interleave3 spreads the low 21 bits of v so consecutive bits land three
// apart (the classic Morton bit-spreading with magic masks).
func interleave3(v uint32) uint64 {
	x := uint64(v) & 0x1FFFFF
	x = (x | x<<32) & 0x1F00000000FFFF
	x = (x | x<<16) & 0x1F0000FF0000FF
	x = (x | x<<8) & 0x100F00F00F00F00F
	x = (x | x<<4) & 0x10C30C30C30C30C3
	x = (x | x<<2) & 0x1249249249249249
	return x
}
