package sparse

// Kernels that visit every row once (TwoSided's sampling, the
// Sinkhorn–Knopp sweeps) run faster over the rows grouped by degree than
// in index order. A row loop in index order has a data-dependent trip
// count, so its exit mispredicts about once per row; on graphs of small,
// mixed degrees (road networks, Erdős–Rényi) that misprediction, not
// memory, bounds the sweep. The rows of one group share their degree, so a
// group runs one fixed trip count. The idea is the one behind
// degree-sorted sliced formats such as SELL-C-σ (Kreutzer et al., SIAM J.
// Sci. Comput. 2014). Every row keeps its own entries in CSR order, so a
// kernel that sums a row left to right gets the same bits in either
// order.

// MaxFixedDegree is the largest degree with a group of its own in a
// DegreeOrder, and the largest a Layout packs. Longer rows are few on the
// graphs this helps, and their inner loop dwarfs one misprediction.
const MaxFixedDegree = 16

// DegreeGroups counts the groups of a DegreeOrder: one per degree from 0
// to MaxFixedDegree, and one for all longer rows.
const DegreeGroups = MaxFixedDegree + 2

// DegreeOrder lists the rows of a matrix grouped by degree: group d holds
// the rows of degree d for d <= MaxFixedDegree, and the last group every
// longer row, each group in ascending row order. It costs 4 bytes per row.
type DegreeOrder struct {
	// Rows lists the row indices, group by group.
	Rows []int32
	// Start delimits the groups: group d is Rows[Start[d]:Start[d+1]].
	Start [DegreeGroups + 1]int
}

// degreeGroup returns the group of a row of degree d.
func degreeGroup(d int) int { return min(d, DegreeGroups-1) }

// NewDegreeOrder builds the degree order of a's rows with a stable
// counting sort, in O(rows) time.
func NewDegreeOrder(a *CSR) *DegreeOrder {
	o := &DegreeOrder{Rows: make([]int32, a.RowsN)}
	for i := 0; i < a.RowsN; i++ {
		o.Start[degreeGroup(a.Degree(i))+1]++
	}
	for g := 0; g < DegreeGroups; g++ {
		o.Start[g+1] += o.Start[g]
	}
	next := o.Start
	for i := 0; i < a.RowsN; i++ {
		g := degreeGroup(a.Degree(i))
		o.Rows[next[g]] = int32(i)
		next[g]++
	}
	return o
}

// Layout is the packed form of a DegreeOrder: the column indices of every
// row of degree 1 to MaxFixedDegree, copied into one array in the order's
// row order, group after group. A sweep over it reads one contiguous
// stream with a fixed trip count per group and no row pointers. Rows of
// degree 0 and above MaxFixedDegree are not copied; a sweep reads the
// latter from the CSR. It costs 4 bytes per packed index.
type Layout struct {
	*DegreeOrder
	// Idx holds the packed column indices. The row at position p of group
	// d, 1 <= d <= MaxFixedDegree, stores its entries, in CSR order, at
	// Idx[off[d]+(p-Start[d])*d:][:d]; Group slices them out.
	Idx []int32
	off [MaxFixedDegree + 1]int // where group d's indices start in Idx
}

// Pack builds the layout of o, the degree order of a, in O(packed
// entries) time.
func (o *DegreeOrder) Pack(a *CSR) *Layout {
	l := &Layout{DegreeOrder: o}
	n := 0
	for d := 1; d <= MaxFixedDegree; d++ {
		l.off[d] = n
		n += d * (o.Start[d+1] - o.Start[d])
	}
	l.Idx = make([]int32, 0, n)
	for _, i := range o.Rows[o.Start[1]:o.Start[MaxFixedDegree+1]] {
		l.Idx = append(l.Idx, a.Idx[a.Ptr[i]:a.Ptr[i+1]]...)
	}
	return l
}

// Group returns the rows at positions [lo, hi) of group d, which must lie
// inside it, and, for 1 <= d <= MaxFixedDegree, their packed indices (nil
// for the other groups).
func (l *Layout) Group(d, lo, hi int) (rows, idx []int32) {
	rows = l.Rows[lo:hi]
	if d >= 1 && d <= MaxFixedDegree {
		s := l.off[d] + (lo-l.Start[d])*d
		idx = l.Idx[s : s+(hi-lo)*d]
	}
	return rows, idx
}
