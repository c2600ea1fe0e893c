package exact

import "repro/internal/sparse"

// MC21 computes a maximum matching with row-by-row augmenting DFS plus the
// classic cheap-assignment lookahead (Duff's MC21 algorithm). It is the
// second independent exact implementation, used to cross-check
// Hopcroft–Karp, and — because it augments one free row at a time — it is
// the natural consumer of a warm-start matching: only rows left unmatched
// by the heuristic trigger a search.
func MC21(a *sparse.CSR, init *Matching) *Matching {
	n, m := a.RowsN, a.ColsN
	mt := NewMatching(n, m)
	if init != nil {
		copy(mt.RowMate, init.RowMate)
		copy(mt.ColMate, init.ColMate)
		mt.Size = init.Size
	}

	// lookahead[i]: next unexplored arc for the cheap scan of row i.
	lookahead := make([]int, n)
	for i := range lookahead {
		lookahead[i] = a.Ptr[i]
	}
	visited := make([]int32, m) // stamp of the last search that saw column j
	for j := range visited {
		visited[j] = -1
	}
	arc := make([]int, n)
	rowStack := make([]int32, 0, 64)
	colStack := make([]int32, 0, 64)

	for s := 0; s < n; s++ {
		if mt.RowMate[s] != NIL {
			continue
		}
		stamp := int32(s)
		rowStack = append(rowStack[:0], int32(s))
		colStack = colStack[:0]
		arc[s] = a.Ptr[s]
		augmented := false
		for len(rowStack) > 0 && !augmented {
			i := rowStack[len(rowStack)-1]
			// Cheap scan: try to find a free column immediately.
			for lookahead[i] < a.Ptr[i+1] {
				j := a.Idx[lookahead[i]]
				lookahead[i]++
				if mt.ColMate[j] == NIL {
					// Augment: match (i, j) and shift along the stack.
					colStack = append(colStack, j)
					for k := len(rowStack) - 1; k >= 0; k-- {
						r := rowStack[k]
						c := colStack[k]
						mt.RowMate[r] = c
						mt.ColMate[c] = r
					}
					mt.Size++
					augmented = true
					break
				}
			}
			if augmented {
				break
			}
			// Deep scan: follow a matched column not seen this search.
			advanced := false
			for arc[i] < a.Ptr[i+1] {
				p := arc[i]
				arc[i]++
				j := a.Idx[p]
				if visited[j] == stamp {
					continue
				}
				visited[j] = stamp
				i2 := mt.ColMate[j]
				// i2 != NIL here: free columns are consumed by the cheap
				// scan before the deep scan can reach them only if the
				// cheap cursor already passed them, so check anyway.
				if i2 == NIL {
					colStack = append(colStack, j)
					for k := len(rowStack) - 1; k >= 0; k-- {
						r := rowStack[k]
						c := colStack[k]
						mt.RowMate[r] = c
						mt.ColMate[c] = r
					}
					mt.Size++
					augmented = true
					break
				}
				colStack = append(colStack, j)
				rowStack = append(rowStack, i2)
				arc[i2] = a.Ptr[i2]
				advanced = true
				break
			}
			if !advanced && !augmented {
				rowStack = rowStack[:len(rowStack)-1]
				if len(colStack) > 0 {
					colStack = colStack[:len(colStack)-1]
				}
			}
		}
	}
	return mt
}
