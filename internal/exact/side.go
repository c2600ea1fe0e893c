package exact

// SearchColumns reports whether an exact refinement of a graph with the
// given numbers of non-isolated rows and columns should search from the
// columns, that is, run on the transpose. A maximum matching leaves
// rows−sprank non-isolated rows and cols−sprank non-isolated columns
// free, and a search pays again and again for the doomed roots on its own
// side: every Hopcroft–Karp phase and the final proof re-walk the region
// they reach, push-relabel raises each one's label to the n+m+1 cap, and
// graft keeps growing their trees. For any matching the free non-isolated
// rows minus the free non-isolated columns is rows−cols, so the side with
// fewer non-isolated vertices has fewer doomed roots, and that is known
// before the first phase. Ties keep the row search.
func SearchColumns(rows, cols int) bool { return cols < rows }

// Mirror sets dst to src seen from the other side — RowMate and ColMate
// swapped, sharing src's arrays — and returns dst; a nil src (the empty
// warm start) gives nil. A refiner run on the transpose takes its warm
// start through Mirror, and its matching goes back the same way.
func Mirror(dst, src *Matching) *Matching {
	if src == nil {
		return nil
	}
	*dst = Matching{RowMate: src.ColMate, ColMate: src.RowMate, Size: src.Size}
	return dst
}
