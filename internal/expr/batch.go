package expr

// DefaultBatchCapacity is the default number of rows one execution batch
// targets. It is large enough to amortize per-batch bookkeeping (cost
// flushes, virtual dispatch into operators) over many tuples while keeping
// a batch of typical TPC-H rows within cache-friendly bounds.
const DefaultBatchCapacity = 1024

// Batch is a chunk of tuples flowing between operators in the vectorized
// executor, laid out column-major: Cols holds N physical rows as one
// ColVec per column, and Sel — when non-nil — is a selection vector of
// physical row indices, in ascending order, naming the rows that are
// logically present. Filters select by writing Sel instead of copying
// rows; downstream operators iterate logical rows via Len/RowIdx.
//
// A batch handed out by an operator's Next is valid only until the
// following Next call and is read-only to consumers: Cols may alias
// storage-owned page vectors, so consumers must never mutate or Reset a
// batch they did not build. Values gathered out of a batch are immutable
// and may be retained.
type Batch struct {
	Cols []ColVec
	Sel  []int32
	N    int
}

// NewBatch returns an empty owned batch with width columns.
func NewBatch(width int) *Batch {
	return &Batch{Cols: make([]ColVec, width)}
}

// Len returns the number of logical rows: the selection's length when one
// is present, the physical row count otherwise.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowIdx maps logical row li to its physical index in Cols.
func (b *Batch) RowIdx(li int) int {
	if b.Sel != nil {
		return int(b.Sel[li])
	}
	return li
}

// Width returns the column count.
func (b *Batch) Width() int { return len(b.Cols) }

// Reset empties an owned batch, keeping column capacity. It must not be
// called on view batches whose Cols alias another owner's vectors.
func (b *Batch) Reset() {
	for i := range b.Cols {
		b.Cols[i].Reset()
	}
	b.Sel = nil
	b.N = 0
}

// Alias turns b into a zero-copy view of src's physical rows with the
// given selection: Cols shares src's vectors, so b must never be mutated
// while the view is live.
func (b *Batch) Alias(src *Batch, sel []int32) {
	b.Cols = src.Cols
	b.N = src.N
	b.Sel = sel
}

// AppendRow appends one tuple to an owned batch.
func (b *Batch) AppendRow(r Row) {
	for i := range b.Cols {
		b.Cols[i].Append(r[i])
	}
	b.N++
}

// AppendBatch appends the first limit logical rows of src to an owned
// batch, columnar-wise.
func (b *Batch) AppendBatch(src *Batch, limit int) {
	if src.Sel == nil && limit == src.N && b.N == 0 {
		for c := range b.Cols {
			b.Cols[c].AppendFrom(&src.Cols[c], nil)
		}
		b.N = src.N
		return
	}
	for li := 0; li < limit; li++ {
		i := src.RowIdx(li)
		for c := range b.Cols {
			b.Cols[c].Append(src.Cols[c].Get(i))
		}
		b.N++
	}
}

// gatherInto fills dst with physical row i's values. dst must have one
// slot per column; it is returned for convenience.
func (b *Batch) gatherInto(dst Row, i int) Row {
	for c := range b.Cols {
		dst[c] = b.Cols[c].Get(i)
	}
	return dst
}

// Row materializes logical row li into dst (grown as needed) and returns
// it.
func (b *Batch) Row(li int, dst Row) Row {
	if cap(dst) < len(b.Cols) {
		dst = make(Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	return b.gatherInto(dst, b.RowIdx(li))
}

// AppendRowsTo materializes every logical row into dst and returns the
// extended slice — the re-rowification the engine performs at the client
// edge. All rows share one fresh backing allocation; they are independent
// of the batch and may be retained.
func (b *Batch) AppendRowsTo(dst []Row) []Row {
	n, w := b.Len(), len(b.Cols)
	backing := make([]Value, n*w)
	for li := 0; li < n; li++ {
		row := backing[li*w : (li+1)*w : (li+1)*w]
		b.gatherInto(row, b.RowIdx(li))
		dst = append(dst, row)
	}
	return dst
}

// Rows materializes every logical row with fresh backing.
func (b *Batch) Rows() []Row { return b.AppendRowsTo(nil) }

// RowBytes estimates the storage footprint of logical row li, matching
// Row.Bytes on the materialized tuple.
func (b *Batch) RowBytes(li int) int64 {
	i := b.RowIdx(li)
	var n int64 = 4 // header
	for c := range b.Cols {
		n += b.Cols[c].Get(i).Bytes()
	}
	return n
}

// EvalBatch evaluates e over every logical row of in, writing one value
// per row into dst (which is Reset first). Plain column references copy
// the source vector payload instead of walking the interpreter per row,
// and literals replicate the constant; cycle accounting is identical to
// row-at-a-time Eval.
func EvalBatch(e Expr, in *Batch, dst *ColVec, cost *Cost) {
	dst.Reset()
	switch e := e.(type) {
	case Col:
		cost.Add(float64(in.Len()) * CyclesColRef)
		dst.AppendFrom(&in.Cols[e.Idx], in.Sel)
		return
	case Const:
		cost.Add(float64(in.Len()) * CyclesConst)
		for li, n := 0, in.Len(); li < n; li++ {
			dst.Append(e.V)
		}
		return
	}
	scratch := make(Row, len(in.Cols))
	if in.Sel == nil {
		for i := 0; i < in.N; i++ {
			dst.Append(e.Eval(in.gatherInto(scratch, i), cost))
		}
	} else {
		for _, i := range in.Sel {
			dst.Append(e.Eval(in.gatherInto(scratch, int(i)), cost))
		}
	}
}

// FilterBatch evaluates pred over every logical row of in and returns the
// surviving physical indices appended to sel[:0] — a selection vector the
// caller threads back into a batch, so filtering never copies rows. The
// common single-column predicate shapes (col ⋈ const, col BETWEEN, col IN
// hash-set) run in tight loops over the contiguous typed payload slices;
// everything else gathers a scratch row and falls back to Eval. Charged
// cycles are identical to evaluating pred row by row.
//
// The returned selection is always non-nil: an empty selection means "no
// rows", whereas a nil Batch.Sel means "all rows".
func FilterBatch(pred Expr, in *Batch, sel []int32, cost *Cost) []int32 {
	if sel == nil {
		sel = make([]int32, 0, 16)
	} else {
		sel = sel[:0]
	}
	switch p := pred.(type) {
	case Cmp:
		if col, ok := p.L.(Col); ok {
			if c, ok := p.R.(Const); ok {
				return filterCmpColConst(p.Op, col.Idx, c.V, in, sel, cost)
			}
		}
	case Between:
		if col, ok := p.E.(Col); ok {
			return filterBetweenCol(col.Idx, p.Lo, p.Hi, in, sel, cost)
		}
	case *InHash:
		if col, ok := p.E.(Col); ok {
			return filterInHashCol(col.Idx, p.Set, in, sel, cost)
		}
	}
	return filterGeneric(pred, in, sel, cost)
}

// filterGeneric is the fallback: gather each logical row and interpret the
// predicate — exactly the work a row-at-a-time engine does per tuple.
func filterGeneric(pred Expr, in *Batch, sel []int32, cost *Cost) []int32 {
	scratch := make(Row, len(in.Cols))
	if in.Sel == nil {
		for i := 0; i < in.N; i++ {
			if pred.Eval(in.gatherInto(scratch, i), cost).Truthy() {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	for _, i := range in.Sel {
		if pred.Eval(in.gatherInto(scratch, int(i)), cost).Truthy() {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// numericKind reports whether k orders numerically under Compare — the
// single definition of the numeric class, shared by Compare and the dense
// filter fast paths so the two can never diverge.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindDate || k == KindBool
}

// cmpKeep maps a Compare result through a comparison operator.
func cmpKeep(op CmpOp, rel int) bool {
	switch op {
	case EQ:
		return rel == 0
	case NE:
		return rel != 0
	case LT:
		return rel < 0
	case LE:
		return rel <= 0
	case GT:
		return rel > 0
	case GE:
		return rel >= 0
	}
	return false
}

// filterCmpColConst is the vectorized loop for Cmp{Col, Const}, charging
// exactly what Cmp.Eval charges per row. Dense homogeneous vectors run the
// typed payload loops; NULLs, input selections, heterogeneous vectors, and
// incomparable kinds take the per-element slow path.
func filterCmpColConst(op CmpOp, idx int, k Value, in *Batch, sel []int32, cost *Cost) []int32 {
	vec := &in.Cols[idx]
	n := in.Len()
	if n == 0 {
		return sel
	}
	dense := in.Sel == nil && vec.Any == nil && !vec.HasNulls() && !k.IsNull() &&
		((vec.Kind == KindString && k.Kind == KindString) ||
			(numericKind(vec.Kind) && numericKind(k.Kind)))
	if !dense {
		var cycles float64
		for li := 0; li < n; li++ {
			i := in.RowIdx(li)
			v := vec.Get(i)
			cycles += CyclesColRef + CyclesConst
			if v.IsNull() || k.IsNull() {
				cycles += CyclesCompare
				continue
			}
			if v.Kind == KindString {
				cycles += CyclesStringCmp
			} else {
				cycles += CyclesCompare
			}
			if cmpKeep(op, Compare(v, k)) {
				sel = append(sel, int32(i))
			}
		}
		cost.Add(cycles)
		return sel
	}
	if vec.Kind == KindString {
		cost.Add(float64(n) * (CyclesColRef + CyclesConst + CyclesStringCmp))
		if vec.Dict != nil {
			return selCmpCodes(op, vec.Codes, vec.Dict, k.S, sel)
		}
		return selCmpStrings(op, vec.S, k.S, sel)
	}
	cost.Add(float64(n) * (CyclesColRef + CyclesConst + CyclesCompare))
	if vec.Kind == KindFloat {
		return selCmpFloats(op, vec.F, k.AsFloat(), sel)
	}
	return selCmpInts(op, vec.I, k.AsFloat(), sel)
}

// selCmpInts selects the int/date/bool payload elements standing in the
// given relation to k. Comparisons go through float64 exactly as
// Compare does, so ordering (including 2⁵³-scale rounding) is identical.
func selCmpInts(op CmpOp, vals []int64, k float64, sel []int32) []int32 {
	switch op {
	case EQ:
		for i, v := range vals {
			if x := float64(v); !(x < k) && !(x > k) {
				sel = append(sel, int32(i))
			}
		}
	case NE:
		for i, v := range vals {
			if x := float64(v); x < k || x > k {
				sel = append(sel, int32(i))
			}
		}
	case LT:
		for i, v := range vals {
			if float64(v) < k {
				sel = append(sel, int32(i))
			}
		}
	case LE:
		for i, v := range vals {
			if !(float64(v) > k) {
				sel = append(sel, int32(i))
			}
		}
	case GT:
		for i, v := range vals {
			if float64(v) > k {
				sel = append(sel, int32(i))
			}
		}
	case GE:
		for i, v := range vals {
			if !(float64(v) < k) {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// selCmpFloats is selCmpInts over the float payload.
func selCmpFloats(op CmpOp, vals []float64, k float64, sel []int32) []int32 {
	switch op {
	case EQ:
		for i, v := range vals {
			if !(v < k) && !(v > k) {
				sel = append(sel, int32(i))
			}
		}
	case NE:
		for i, v := range vals {
			if v < k || v > k {
				sel = append(sel, int32(i))
			}
		}
	case LT:
		for i, v := range vals {
			if v < k {
				sel = append(sel, int32(i))
			}
		}
	case LE:
		for i, v := range vals {
			if !(v > k) {
				sel = append(sel, int32(i))
			}
		}
	case GT:
		for i, v := range vals {
			if v > k {
				sel = append(sel, int32(i))
			}
		}
	case GE:
		for i, v := range vals {
			if !(v < k) {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// selCmpStrings is selCmpInts over the string payload.
func selCmpStrings(op CmpOp, vals []string, k string, sel []int32) []int32 {
	switch op {
	case EQ:
		for i, v := range vals {
			if v == k {
				sel = append(sel, int32(i))
			}
		}
	case NE:
		for i, v := range vals {
			if v != k {
				sel = append(sel, int32(i))
			}
		}
	case LT:
		for i, v := range vals {
			if v < k {
				sel = append(sel, int32(i))
			}
		}
	case LE:
		for i, v := range vals {
			if v <= k {
				sel = append(sel, int32(i))
			}
		}
	case GT:
		for i, v := range vals {
			if v > k {
				sel = append(sel, int32(i))
			}
		}
	case GE:
		for i, v := range vals {
			if v >= k {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// selCmpCodes is selCmpStrings over a dictionary-encoded payload: the
// constant maps to a code (equality) or a code bound (ordering — legal
// because the dictionary is sorted, so code order is string order), and the
// loop compares int32 codes instead of strings. Selections are identical to
// selCmpStrings on the decoded values; charging is done by the caller.
func selCmpCodes(op CmpOp, codes []int32, d *Dict, k string, sel []int32) []int32 {
	switch op {
	case EQ:
		c, ok := d.Code(k)
		if !ok {
			return sel
		}
		for i, v := range codes {
			if v == c {
				sel = append(sel, int32(i))
			}
		}
	case NE:
		c, ok := d.Code(k)
		if !ok {
			for i := range codes {
				sel = append(sel, int32(i))
			}
			return sel
		}
		for i, v := range codes {
			if v != c {
				sel = append(sel, int32(i))
			}
		}
	case LT:
		bound := d.LowerBound(k)
		for i, v := range codes {
			if v < bound {
				sel = append(sel, int32(i))
			}
		}
	case LE:
		bound := d.UpperBound(k)
		for i, v := range codes {
			if v < bound {
				sel = append(sel, int32(i))
			}
		}
	case GT:
		bound := d.UpperBound(k)
		for i, v := range codes {
			if v >= bound {
				sel = append(sel, int32(i))
			}
		}
	case GE:
		bound := d.LowerBound(k)
		for i, v := range codes {
			if v >= bound {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// filterBetweenCol is the vectorized loop for Between{Col}, the TPC-H
// date-range shape: lo <= v < hi.
func filterBetweenCol(idx int, lo, hi Value, in *Batch, sel []int32, cost *Cost) []int32 {
	vec := &in.Cols[idx]
	n := in.Len()
	if n == 0 {
		return sel
	}
	dense := in.Sel == nil && vec.Any == nil && !vec.HasNulls() &&
		((vec.Kind == KindString && lo.Kind == KindString && hi.Kind == KindString) ||
			(numericKind(vec.Kind) && numericKind(lo.Kind) && numericKind(hi.Kind)))
	if !dense {
		var cycles float64
		for li := 0; li < n; li++ {
			i := in.RowIdx(li)
			v := vec.Get(i)
			cycles += CyclesColRef + 2*CyclesCompare
			if v.IsNull() {
				continue
			}
			if Compare(v, lo) >= 0 && Compare(v, hi) < 0 {
				sel = append(sel, int32(i))
			}
		}
		cost.Add(cycles)
		return sel
	}
	cost.Add(float64(n) * (CyclesColRef + 2*CyclesCompare))
	if vec.Kind == KindString {
		if vec.Dict != nil {
			loc, hic := vec.Dict.LowerBound(lo.S), vec.Dict.LowerBound(hi.S)
			for i, v := range vec.Codes {
				if v >= loc && v < hic {
					sel = append(sel, int32(i))
				}
			}
			return sel
		}
		los, his := lo.S, hi.S
		for i, v := range vec.S {
			if !(v < los) && v < his {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	lof, hif := lo.AsFloat(), hi.AsFloat()
	if vec.Kind == KindFloat {
		for i, v := range vec.F {
			if !(v < lof) && v < hif {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	for i, v := range vec.I {
		if x := float64(v); !(x < lof) && x < hif {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// filterInHashCol is the vectorized loop for InHash{Col}, the merged-QED
// hash-set membership shape. The probe itself dominates, so one loop over
// canonical element values serves every vector representation.
func filterInHashCol(idx int, set map[Value]struct{}, in *Batch, sel []int32, cost *Cost) []int32 {
	vec := &in.Cols[idx]
	n := in.Len()
	cost.Add(float64(n) * (CyclesColRef + CyclesHashProbe))
	if vec.Dict != nil && in.Sel == nil {
		// Probe the set once per dictionary word, then test codes against
		// the resulting bitmap. Membership is Go map equality on canonical
		// Values, so a NULL set element matches NULL rows.
		d := vec.Dict
		keep := make([]bool, d.Len())
		for c := range keep {
			_, keep[c] = set[Value{Kind: KindString, S: d.words[c]}]
		}
		_, nullIn := set[Value{}]
		for i, c := range vec.Codes {
			if vec.Nulls != nil && vec.Nulls[i] {
				if nullIn {
					sel = append(sel, int32(i))
				}
				continue
			}
			if keep[c] {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	if in.Sel == nil {
		for i := 0; i < n; i++ {
			if _, ok := set[vec.Get(i)]; ok {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	for _, i := range in.Sel {
		if _, ok := set[vec.Get(int(i))]; ok {
			sel = append(sel, int32(i))
		}
	}
	return sel
}
