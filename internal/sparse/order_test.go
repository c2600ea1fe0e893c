package sparse

import (
	"slices"
	"testing"
)

func orderTestMatrices() map[string]*CSR {
	return map[string]*CSR{
		// Mean degree 10: rows of degree 0 to past 17, in every group.
		"mixed":  randomCSR(3, 2000, 900, 20000),
		"sparse": randomCSR(4, 3000, 3000, 6000),
		"empty":  FromDense([][]int{{0, 0}, {0, 0}}),
		"none":   {Ptr: []int{0}},
	}
}

// TestDegreeOrderGroups checks the order's layout: every row once, groups
// by min(degree, MaxFixedDegree+1), ascending within a group.
func TestDegreeOrderGroups(t *testing.T) {
	for name, a := range orderTestMatrices() {
		o := NewDegreeOrder(a)
		seen := make([]bool, a.RowsN)
		if o.Start[0] != 0 || o.Start[DegreeGroups] != a.RowsN {
			t.Fatalf("%s: groups span [%d, %d), want [0, %d)", name, o.Start[0], o.Start[DegreeGroups], a.RowsN)
		}
		for g := 0; g < DegreeGroups; g++ {
			for p := o.Start[g]; p < o.Start[g+1]; p++ {
				i := int(o.Rows[p])
				if seen[i] {
					t.Fatalf("%s: row %d listed twice", name, i)
				}
				seen[i] = true
				if degreeGroup(a.Degree(i)) != g {
					t.Fatalf("%s: row %d of degree %d in group %d", name, i, a.Degree(i), g)
				}
				if p > o.Start[g] && o.Rows[p-1] >= o.Rows[p] {
					t.Fatalf("%s: group %d not ascending at position %d", name, g, p)
				}
			}
		}
	}
}

// TestLayoutPacksRows checks that Group returns, for every range of every
// group, the order's rows and each packed row's CSR entries, and that the
// layout packs exactly the entries of rows of degree 1 to MaxFixedDegree.
func TestLayoutPacksRows(t *testing.T) {
	for name, a := range orderTestMatrices() {
		l := NewDegreeOrder(a).Pack(a)
		packed := 0
		for g := 0; g < DegreeGroups; g++ {
			lo, hi := l.Start[g], l.Start[g+1]
			// A range that starts inside the group, as a chunk would.
			for _, from := range []int{lo, lo + (hi-lo)/3} {
				rows, idx := l.Group(g, from, hi)
				if !slices.Equal(rows, l.Rows[from:hi]) {
					t.Fatalf("%s: group %d from %d: rows differ from the order", name, g, from)
				}
				if g == 0 || g > MaxFixedDegree {
					if idx != nil {
						t.Fatalf("%s: group %d has packed indices", name, g)
					}
					continue
				}
				if len(idx) != g*len(rows) {
					t.Fatalf("%s: group %d from %d: %d packed indices for %d rows", name, g, from, len(idx), len(rows))
				}
				for k, i := range rows {
					if got := idx[k*g : k*g+g]; !slices.Equal(got, a.Row(int(i))) {
						t.Fatalf("%s: row %d packed as %v, CSR %v", name, i, got, a.Row(int(i)))
					}
				}
			}
			if g >= 1 && g <= MaxFixedDegree {
				packed += g * (hi - lo)
			}
		}
		if len(l.Idx) != packed || cap(l.Idx) != packed {
			t.Fatalf("%s: %d packed indices (capacity %d), want %d", name, len(l.Idx), cap(l.Idx), packed)
		}
	}
}
