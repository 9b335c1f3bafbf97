package treecode

// Neighbors returns the indices (into the tree's key-sorted Sources
// slice) of all sources within radius of the point, found by pruning the
// octree with box–point distances. This is the neighbour-finding service
// the paper's §3.5.1 clients (smoothed particle hydrodynamics, the
// vortex particle method) obtain from the treecode library.
func (t *Tree) Neighbors(x, y, z, radius float64, out []int) []int {
	if radius < 0 {
		return out
	}
	r2 := radius * radius
	for i := int32(0); i < int32(len(t.Nodes)); {
		n := &t.Nodes[i]
		if n.Count == 0 || t.Boxes[i].MinDist2(x, y, z) > r2 {
			i = n.Skip
			continue
		}
		if !n.Leaf {
			i++
			continue
		}
		for j := n.First; j < n.First+n.Count; j++ {
			s := &t.Sources[j]
			dx := s.X - x
			dy := s.Y - y
			dz := s.Z - z
			if dx*dx+dy*dy+dz*dz <= r2 {
				out = append(out, int(j))
			}
		}
		i = n.Skip
	}
	return out
}
