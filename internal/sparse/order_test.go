package sparse

import "testing"

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
