// Package netsim models the MetaBlade cluster's interconnect: 100 Mb/s
// switched Fast Ethernet in a star topology (paper §3.1), generalized so
// the network-bandwidth ablation can sweep 10/100/1000 Mb/s. The model is
// LogGP-flavoured: a per-message software overhead (the 2001-era TCP/IP +
// MPI stack), a per-hop wire/switch latency, and a per-byte serialization
// cost on each link. The switch is non-blocking (full bisection across
// ports), so simultaneous transfers on distinct port pairs do not contend,
// but a node's single NIC serializes its own traffic.
package netsim

import (
	"fmt"
	"math"
)

// Fabric describes one interconnect.
type Fabric struct {
	Name string
	// BandwidthBps is the per-link data rate in bits per second.
	BandwidthBps float64
	// SoftwareOverhead is the per-message send+receive CPU/stack cost in
	// seconds (TCP/IP + MPI layers dominate on Fast Ethernet).
	SoftwareOverhead float64
	// HopLatency is the one-way wire+switch latency in seconds per hop.
	HopLatency float64
	// Hops between two nodes through the star (node→switch→node = 2).
	Hops int
	// StoreAndForward adds a full serialization delay per intermediate
	// hop, as a 2001-era store-and-forward switch does.
	StoreAndForward bool
	// ReduceOpSecPerElem is the per-element combining cost (seconds per
	// 8-byte element, per tree level) a reduction pays on top of the
	// message transfer — what separates Reduce from Bcast, which moves
	// the same bytes but combines nothing.
	ReduceOpSecPerElem float64
	// Topology selects the fabric shape. The zero value, TopoStar, is
	// the paper's single switch: every pair of nodes is Hops apart, so
	// all historical numbers are unchanged. The other shapes make the
	// hop count rank-pair dependent (see HopsBetween) and give the MPI
	// layer a natural group width for hierarchical collectives.
	Topology Topology
	// Radix is the switch port count k of a k-ary fat-tree
	// (TopoFatTree): k/2 hosts per leaf switch, k/2 leaves per pod,
	// k pods — k³/4 hosts. Must be even and ≥ 2.
	Radix int
	// TorusX, TorusY, TorusZ are the torus dimensions (TopoTorus2D uses
	// X×Y, TopoTorus3D uses X×Y×Z). Ranks are laid out x-major.
	TorusX, TorusY, TorusZ int
}

// FastEthernet returns the paper's fabric: 100 Mb/s switched Ethernet with
// a TCP/IP-stack-dominated message overhead.
func FastEthernet() *Fabric {
	return &Fabric{
		Name:             "100 Mb/s switched Fast Ethernet",
		BandwidthBps:     100e6,
		SoftwareOverhead: 70e-6,
		HopLatency:       5e-6,
		Hops:             2,
		StoreAndForward:  true,
		// ~80 Mop/s summing rate for the era's node CPU.
		ReduceOpSecPerElem: 12.5e-9,
	}
}

// Ethernet10 returns plain 10 Mb/s Ethernet (for the bandwidth ablation).
func Ethernet10() *Fabric {
	f := FastEthernet()
	f.Name = "10 Mb/s Ethernet"
	f.BandwidthBps = 10e6
	return f
}

// GigabitEthernet returns 1000 Mb/s Ethernet (for the bandwidth ablation).
func GigabitEthernet() *Fabric {
	f := FastEthernet()
	f.Name = "1000 Mb/s Gigabit Ethernet"
	f.BandwidthBps = 1000e6
	f.SoftwareOverhead = 40e-6
	return f
}

// Validate checks the parameters.
func (f *Fabric) Validate() error {
	if f.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: %s: non-positive bandwidth", f.Name)
	}
	if f.SoftwareOverhead < 0 || f.HopLatency < 0 {
		return fmt.Errorf("netsim: %s: negative latency", f.Name)
	}
	if f.Hops < 1 {
		return fmt.Errorf("netsim: %s: hops must be ≥ 1", f.Name)
	}
	if f.ReduceOpSecPerElem < 0 {
		return fmt.Errorf("netsim: %s: negative reduce op cost", f.Name)
	}
	switch f.Topology {
	case TopoStar:
	case TopoFatTree:
		if f.Radix < 2 || f.Radix%2 != 0 {
			return fmt.Errorf("netsim: %s: fat-tree radix %d must be even and ≥ 2", f.Name, f.Radix)
		}
	case TopoTorus2D:
		if f.TorusX < 1 || f.TorusY < 1 {
			return fmt.Errorf("netsim: %s: torus2d dimensions %dx%d", f.Name, f.TorusX, f.TorusY)
		}
	case TopoTorus3D:
		if f.TorusX < 1 || f.TorusY < 1 || f.TorusZ < 1 {
			return fmt.Errorf("netsim: %s: torus3d dimensions %dx%dx%d", f.Name, f.TorusX, f.TorusY, f.TorusZ)
		}
	default:
		return fmt.Errorf("netsim: %s: unknown topology %d", f.Name, f.Topology)
	}
	return nil
}

// serialize returns the wire time for a payload of the given size on one
// link, including rough framing overhead (Ethernet + IP + TCP headers per
// 1500-byte MTU frame).
func (f *Fabric) serialize(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	const mtu = 1460.0 // payload per frame
	frames := math.Ceil(float64(bytes) / mtu)
	wireBytes := float64(bytes) + frames*78 // header + preamble + gap
	return wireBytes * 8 / f.BandwidthBps
}

// PointToPoint returns the end-to-end time for one message of the given
// payload size between two nodes.
func (f *Fabric) PointToPoint(bytes int) float64 {
	t := f.SoftwareOverhead + float64(f.Hops)*f.HopLatency
	if f.StoreAndForward {
		// Each hop fully serializes the message.
		t += float64(f.Hops) * f.serialize(bytes)
	} else {
		t += f.serialize(bytes)
	}
	return t
}

// Barrier returns the time for a dissemination barrier over p nodes:
// ceil(log2 p) rounds of zero-payload messages.
func (f *Fabric) Barrier(p int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return rounds * f.PointToPoint(0)
}

// Bcast returns the time to broadcast bytes from one root to p-1 others
// using a binomial tree.
func (f *Fabric) Bcast(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return rounds * f.PointToPoint(bytes)
}

// Reduce returns the time for a binomial-tree reduction of bytes to a
// root: the same message structure as Bcast, plus the per-level
// elementwise combining cost (ReduceOpSecPerElem per 8-byte element) a
// receiving node pays before relaying its partial result up the tree.
func (f *Fabric) Reduce(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	combine := f.ReduceOpSecPerElem * float64(bytes) / 8
	return rounds * (f.PointToPoint(bytes) + combine)
}

// Allreduce returns reduce + broadcast (the MPICH-era algorithm on
// Ethernet for small and medium payloads).
func (f *Fabric) Allreduce(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	return f.Reduce(p, bytes) + f.Bcast(p, bytes)
}

// FanIn returns the time for p-1 nodes to deliver bytes each to a single
// destination. The switch is non-blocking, so every message lands after
// one PointToPoint.
func (f *Fabric) FanIn(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	return f.PointToPoint(bytes)
}

// AllreduceRecDbl returns the time for a recursive-doubling allreduce: log2(q) pairwise exchange rounds over the largest
// power-of-two subset q, plus a fold-in and copy-out round when p is not
// a power of two, with the per-element combine cost paid each round.
func (f *Fabric) AllreduceRecDbl(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	q := 1
	rounds := 0.0
	for q*2 <= p {
		q *= 2
		rounds++
	}
	combine := f.ReduceOpSecPerElem * float64(bytes) / 8
	t := rounds * (f.PointToPoint(bytes) + combine)
	if p > q {
		t += 2*f.PointToPoint(bytes) + combine
	}
	return t
}

// BcastPipelined returns the time for a pipelined ring broadcast with
// the given segment size: the first segment crosses p-1 ring hops, and
// each further segment follows one gap behind, the sender's half of the
// per-message software overhead.
func (f *Fabric) BcastPipelined(p, bytes, segBytes int) float64 {
	if p <= 1 || bytes <= 0 {
		return 0
	}
	if segBytes <= 0 || segBytes > bytes {
		segBytes = bytes
	}
	nseg := math.Ceil(float64(bytes) / float64(segBytes))
	gap := f.SoftwareOverhead / 2
	return float64(p-1)*f.PointToPoint(segBytes) + (nseg-1)*gap
}
