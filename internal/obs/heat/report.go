package heat

import (
	"cmp"
	"slices"
)

// LocalityReport is the analyzer's output: remote-access ratios per object,
// bunch and node, plus the dominant-writer vs current-owner mismatch list —
// ranked by wasted hops, so the top entry is the single most profitable
// ownership move. The list is advice for an operator: nothing in BMX moves
// ownership on its own.
type LocalityReport struct {
	TrackedObjects int     `json:"tracked_objects"`
	TotalAccesses  uint64  `json:"total_accesses"`
	TotalAcquires  uint64  `json:"total_acquires"`
	RemoteAcquires uint64  `json:"remote_acquires"`
	RemoteRatio    float64 `json:"remote_ratio"`
	WastedHops     uint64  `json:"wasted_hops"`

	Objects    []ObjectHeat    `json:"objects,omitempty"`
	Bunches    []BunchHeat     `json:"bunches,omitempty"`
	Nodes      []NodeHeat      `json:"nodes,omitempty"`
	Mismatches []OwnerMismatch `json:"mismatches,omitempty"`
}

// ObjectHeat aggregates one object across all accessing nodes.
type ObjectHeat struct {
	OID      uint64  `json:"oid"`
	Bunch    uint32  `json:"bunch,omitempty"`
	Reads    uint64  `json:"reads"`
	Writes   uint64  `json:"writes"`
	Acquires uint64  `json:"acquires"`
	Remote   uint64  `json:"remote"`
	Hops     uint64  `json:"hops"`
	Recent   uint64  `json:"recent"`
	Ratio    float64 `json:"remote_ratio"` // remote acquires / acquires

	Owner    int32 `json:"owner"`    // current owner, -1 if unknown
	Dominant int32 `json:"dominant"` // node with the most writes, -1 if none

	// PerNode breaks the object down by accessing node, sorted by node.
	PerNode []NodeSlice `json:"per_node,omitempty"`
}

// NodeSlice is one node's share of one object's accesses.
type NodeSlice struct {
	Node     int32  `json:"node"`
	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	Acquires uint64 `json:"acquires"`
	Remote   uint64 `json:"remote"`
	Hops     uint64 `json:"hops"`
	Recent   uint64 `json:"recent"`
}

// BunchHeat aggregates every tracked object of one bunch.
type BunchHeat struct {
	Bunch    uint32  `json:"bunch"`
	Objects  int     `json:"objects"`
	Accesses uint64  `json:"accesses"`
	Acquires uint64  `json:"acquires"`
	Remote   uint64  `json:"remote"`
	Ratio    float64 `json:"remote_ratio"`
}

// NodeHeat aggregates one node's view of the whole heap: how much of its
// acquire traffic left the node.
type NodeHeat struct {
	Node     int32   `json:"node"`
	Reads    uint64  `json:"reads"`
	Writes   uint64  `json:"writes"`
	Acquires uint64  `json:"acquires"`
	Remote   uint64  `json:"remote"`
	Hops     uint64  `json:"hops"`
	Ratio    float64 `json:"remote_ratio"`
}

// OwnerMismatch is one piece of migration advice: the node writing an
// object most is not the node owning it, so every one of those writes pays
// the owner chain. WastedHops is the observed cost; the list is ranked by
// it, worst first.
type OwnerMismatch struct {
	OID         uint64  `json:"oid"`
	Bunch       uint32  `json:"bunch,omitempty"`
	Owner       int32   `json:"owner"`
	Dominant    int32   `json:"dominant"`
	Writes      uint64  `json:"dominant_writes"`
	WastedHops  uint64  `json:"wasted_hops"`
	RemoteRatio float64 `json:"remote_ratio"`
}

func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// moreDominant is the dominant-writer selection rule behind the migration
// advice: a candidate node with `writes` writes displaces the current
// dominant writer (domNode with domWrites writes, domNode < 0 while none
// was seen) when it has strictly more writes, or the same non-zero count
// and a lower node id. The fixed tie-break keeps multi-process merges
// byte-for-byte deterministic.
func moreDominant(node int32, writes uint64, domNode int32, domWrites uint64) bool {
	return writes > domWrites || (writes == domWrites && writes > 0 && domNode >= 0 && node < domNode)
}

// Analyze turns a merged (or single-table) row set into a LocalityReport.
// Deterministic: output ordering depends only on the rows' content, with
// OID as the final tie-break everywhere.
func Analyze(rows []Row) LocalityReport {
	type objAgg struct {
		ObjectHeat
		owner     int32
		ownerTick uint64
		hasOwner  bool
		// dominant writer: most writes, ties to the lowest node — a fixed
		// rule so multi-process merges agree byte-for-byte.
		domNode   int32
		domWrites uint64
	}
	objs := make(map[uint64]*objAgg)
	bunches := make(map[uint32]*BunchHeat)
	nodes := make(map[int32]*NodeHeat)

	var rep LocalityReport
	for _, r := range rows {
		o, ok := objs[r.OID]
		if !ok {
			o = &objAgg{ObjectHeat: ObjectHeat{OID: r.OID, Owner: -1, Dominant: -1}, domNode: -1}
			objs[r.OID] = o
		}
		if o.ObjectHeat.Bunch == 0 {
			o.ObjectHeat.Bunch = r.Bunch
		}
		o.Reads += r.Reads
		o.Writes += r.Writes
		o.Acquires += r.Acquires
		o.Remote += r.Remote
		o.Hops += r.Hops
		o.Recent += r.Recent
		if r.Reads|r.Writes|r.Acquires|r.Remote|r.Hops|r.Recent != 0 {
			o.PerNode = append(o.PerNode, NodeSlice{
				Node: r.Node, Reads: r.Reads, Writes: r.Writes, Acquires: r.Acquires,
				Remote: r.Remote, Hops: r.Hops, Recent: r.Recent,
			})
		}
		if r.Owner != nil && (!o.hasOwner || r.OwnerTick >= o.ownerTick) {
			o.owner, o.ownerTick, o.hasOwner = *r.Owner, r.OwnerTick, true
		}
		if moreDominant(r.Node, r.Writes, o.domNode, o.domWrites) {
			o.domNode, o.domWrites = r.Node, r.Writes
		}

		n, ok := nodes[r.Node]
		if !ok {
			n = &NodeHeat{Node: r.Node}
			nodes[r.Node] = n
		}
		n.Reads += r.Reads
		n.Writes += r.Writes
		n.Acquires += r.Acquires
		n.Remote += r.Remote
		n.Hops += r.Hops

		rep.TotalAccesses += r.Reads + r.Writes
		rep.TotalAcquires += r.Acquires
		rep.RemoteAcquires += r.Remote
		rep.WastedHops += r.Hops
	}
	rep.RemoteRatio = ratio(rep.RemoteAcquires, rep.TotalAcquires)
	rep.TrackedObjects = len(objs)

	for _, o := range objs {
		o.Ratio = ratio(o.Remote, o.Acquires)
		if o.hasOwner {
			o.Owner = o.owner
		}
		o.Dominant = o.domNode
		slices.SortFunc(o.PerNode, func(a, b NodeSlice) int { return cmp.Compare(a.Node, b.Node) })

		if b := o.ObjectHeat.Bunch; b != 0 {
			bh, ok := bunches[b]
			if !ok {
				bh = &BunchHeat{Bunch: b}
				bunches[b] = bh
			}
			bh.Objects++
			bh.Accesses += o.Reads + o.Writes
			bh.Acquires += o.Acquires
			bh.Remote += o.Remote
		}

		// A mismatch needs a known owner, a dominant writer, and disagreement.
		if o.hasOwner && o.domNode >= 0 && o.domNode != o.owner {
			rep.Mismatches = append(rep.Mismatches, OwnerMismatch{
				OID: o.OID, Bunch: o.ObjectHeat.Bunch, Owner: o.owner,
				Dominant: o.domNode, Writes: o.domWrites,
				WastedHops: o.Hops, RemoteRatio: o.Ratio,
			})
		}
		rep.Objects = append(rep.Objects, o.ObjectHeat)
	}
	// Objects sorted hottest-first (total accesses then acquires, OID
	// tie-break) so "top N" is a prefix.
	slices.SortFunc(rep.Objects, func(a, b ObjectHeat) int {
		if c := cmp.Compare(b.Reads+b.Writes, a.Reads+a.Writes); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Acquires, a.Acquires); c != 0 {
			return c
		}
		return cmp.Compare(a.OID, b.OID)
	})
	for _, bh := range bunches {
		bh.Ratio = ratio(bh.Remote, bh.Acquires)
		rep.Bunches = append(rep.Bunches, *bh)
	}
	slices.SortFunc(rep.Bunches, func(a, b BunchHeat) int { return cmp.Compare(a.Bunch, b.Bunch) })
	for _, n := range nodes {
		n.Ratio = ratio(n.Remote, n.Acquires)
		rep.Nodes = append(rep.Nodes, *n)
	}
	slices.SortFunc(rep.Nodes, func(a, b NodeHeat) int { return cmp.Compare(a.Node, b.Node) })
	// Worst mismatch first: wasted hops, then dominant writes, then OID.
	slices.SortFunc(rep.Mismatches, func(a, b OwnerMismatch) int {
		if c := cmp.Compare(b.WastedHops, a.WastedHops); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Writes, a.Writes); c != 0 {
			return c
		}
		return cmp.Compare(a.OID, b.OID)
	})
	return rep
}
