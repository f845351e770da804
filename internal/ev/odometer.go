package ev

import "github.com/factcheck/cleansel/internal/dist"

// digit is one enumerated variable of an odometer: its support, its
// current support index, and the two slots of the evaluation buffer its
// current value is written to. A variable that feeds one term only
// writes its second copy to the buffer's sink slot, so the walk never
// branches on how many terms read a variable.
type digit struct {
	values, probs []float64
	pos, pos2     int
	j             int
}

// unitSupport is the support of the padding digits an odometer gets
// when it has fewer than two: one atom of probability 1, so padding
// adds no assignment and multiplies each joint probability by 1, which
// is exact — an empty odometer still visits the one empty assignment
// with probability 1, as the recursive reference does.
var unitSupport = dist.PointMass(0)

// odometer walks the product of its digits' supports in lexicographic
// order, last digit fastest — the visit order of the recursive
// reference enumeration in odometer_test.go. pre[i] is the product of
// the current probabilities of digits < i, accumulated left to right
// from 1, so the joint probability pre[len(digits)] has the same
// float64 bits as the recursion's running product.
//
// Hot loops sweep the last two digits themselves (row, nextRow), so the
// step between consecutive assignments is a store and a multiply; cold
// loops step assignment by assignment (prob, next).
type odometer struct {
	digits []digit
	pre    []float64
	sink   int
}

// reset empties the odometer for reuse; sink is the evaluation-buffer
// slot the padding digit writes to.
func (o *odometer) reset(sink int) {
	o.digits = o.digits[:0]
	o.sink = sink
}

// push appends a digit over d whose value lands in vals[pos] and
// vals[pos2].
func (o *odometer) push(d *dist.Discrete, pos, pos2 int) {
	o.digits = append(o.digits, digit{values: d.Values, probs: d.Probs, pos: pos, pos2: pos2})
}

// start moves every digit to its first atom and writes the values into
// vals. It returns false when some support is empty: the product then
// has no assignment to visit. It pads the odometer to two digits.
func (o *odometer) start(vals []float64) bool {
	for len(o.digits) < 2 {
		o.push(unitSupport, o.sink, o.sink)
	}
	if cap(o.pre) < len(o.digits)+1 {
		o.pre = make([]float64, len(o.digits)+1)
	}
	o.pre = o.pre[:len(o.digits)+1]
	o.pre[0] = 1
	for i := range o.digits {
		if len(o.digits[i].values) == 0 {
			return false
		}
		o.digits[i].j = 0
	}
	o.fill(vals, 0)
	return true
}

// fill writes the values of digits from..end into vals and extends the
// prefix products over them.
func (o *odometer) fill(vals []float64, from int) {
	for i := from; i < len(o.digits); i++ {
		d := &o.digits[i]
		v := d.values[d.j]
		vals[d.pos] = v
		vals[d.pos2] = v
		o.pre[i+1] = o.pre[i] * d.probs[d.j]
	}
}

// prob is the joint probability of the current assignment.
func (o *odometer) prob() float64 { return o.pre[len(o.digits)] }

// next advances to the following assignment, rewriting only the digits
// that changed; it returns false once every assignment was visited.
func (o *odometer) next(vals []float64) bool {
	return o.advance(vals, len(o.digits)-1)
}

// row returns the current row: the product of the probabilities of
// every digit but the last two, and those two digits, whose supports
// the caller sweeps in nested loops. The joint probability of atoms
// (i, j) of the row is (base·d1.probs[i])·d2.probs[j].
func (o *odometer) row() (base float64, d1, d2 *digit) {
	n := len(o.digits) - 2
	return o.pre[n], &o.digits[n], &o.digits[n+1]
}

// nextRow advances past the current row — every digit but the last
// two, as next does, with those two reset to their first atoms — and
// returns false once every row was visited.
func (o *odometer) nextRow(vals []float64) bool {
	n := len(o.digits) - 2
	o.digits[n].j = 0
	o.digits[n+1].j = 0
	return o.advance(vals, n-1)
}

// advance moves digit i forward, carrying left on overflow, and rewrites
// every digit after the one that moved. It returns false when no digit
// at or before i can advance.
func (o *odometer) advance(vals []float64, i int) bool {
	for ; i >= 0; i-- {
		d := &o.digits[i]
		if d.j++; d.j < len(d.values) {
			break
		}
		d.j = 0
	}
	if i < 0 {
		return false
	}
	o.fill(vals, i)
	return true
}
