package sparse

// Degree orders serve the heuristics' sampling region, which draws one
// entry of every row and runs faster over the rows grouped by degree than
// in index order. A row loop in index order has a data-dependent trip
// count, so its exit mispredicts about once per row; on graphs of small,
// mixed degrees (road networks, Erdős–Rényi) that misprediction, not
// memory, bounds the loop. The rows of one group share their degree, so a
// group runs one fixed trip count. The idea is the one behind
// degree-sorted sliced formats such as SELL-C-σ (Kreutzer et al., SIAM J.
// Sci. Comput. 2014). Every row keeps its own entries in CSR order, so a
// kernel that walks a row left to right gets the same bits in either
// order.

// MaxFixedDegree is the largest degree with a group of its own in a
// DegreeOrder. Longer rows are few on the graphs this helps, and their
// inner loop dwarfs one misprediction.
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
