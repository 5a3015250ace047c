package main

import (
	"math"

	"ecodb/internal/expr"
)

// digest summarises a result while it is drained, without keeping it:
// rows counts the rows, set is an order-independent (multiset) digest and
// seq an order-dependent one. Results with ORDER BY compare seq, others
// compare set.
type digest struct {
	rows int64
	set  uint64
	seq  uint64
}

func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func valueHash(h uint64, v expr.Value) uint64 {
	h = mix(h, uint64(v.Kind))
	switch v.Kind {
	case expr.KindFloat:
		h = mix(h, math.Float64bits(v.F))
	case expr.KindString:
		for i := 0; i < len(v.S); i++ {
			h = mix(h, uint64(v.S[i]))
		}
	default:
		h = mix(h, uint64(v.I))
	}
	return h
}

func (d *digest) addRow(get func(c int) expr.Value, width int) {
	h := uint64(0xcbf29ce484222325)
	for c := 0; c < width; c++ {
		h = valueHash(h, get(c))
	}
	d.rows++
	d.set += h
	d.seq = mix(d.seq, h)
}

// addBatch folds every logical row of a result batch into the digest.
func (d *digest) addBatch(b *expr.Batch) {
	n, w := b.Len(), b.Width()
	for li := 0; li < n; li++ {
		i := b.RowIdx(li)
		d.addRow(func(c int) expr.Value { return b.Cols[c].Get(i) }, w)
	}
}

// addRows folds materialized rows into the digest.
func (d *digest) addRows(rows []expr.Row) {
	for _, r := range rows {
		d.addRow(func(c int) expr.Value { return r[c] }, len(r))
	}
}

// equal compares two digests, in order when ordered is set.
func (d digest) equal(o digest, ordered bool) bool {
	if d.rows != o.rows {
		return false
	}
	if ordered {
		return d.seq == o.seq
	}
	return d.set == o.set
}
