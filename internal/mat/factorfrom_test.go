package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bitsEqual reports whether a and b have the same shape and bit-identical
// entries (unlike Equal, +0 and −0 differ).
func bitsEqual(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// randomSPDGram returns GᵀG + n·I for a Gaussian n×n G: symmetric positive
// definite with a full (non-diagonal) lower triangle.
func randomSPDGram(r *rand.Rand, n int) *Dense {
	g := Zeros(n, n)
	for i := range g.data {
		g.data[i] = r.NormFloat64()
	}
	a, _ := Mul(g.T(), g)
	for i := 0; i < n; i++ {
		a.data[i*n+i] += float64(n)
	}
	return a
}

// leadingWith returns an order-m symmetric matrix whose leading p×p block is
// a's and whose remaining entries are a fresh completion: a Gram matrix of
// its own, small couplings to the shared block, and a diagonal dominant
// enough to keep the whole matrix positive definite.
func leadingWith(r *rand.Rand, a *Dense, p, m int) *Dense {
	b := randomSPDGram(r, m)
	for i := 0; i < m; i++ {
		b.data[i*m+i] += float64(m) * 4
		for j := 0; j < p && j < i; j++ {
			v := r.Float64() - 0.5
			b.data[i*m+j], b.data[j*m+i] = v, v
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			b.data[i*m+j] = a.data[i*a.cols+j]
		}
	}
	return b
}

// checkFactorFrom compares Factor(a) and FactorFrom(a, src, p) — through a
// fresh factor, through a dirty factor of another order, and through src
// itself — with the textbook column-ordered loop (naiveCholesky):
// bit-identical L on success, the same error text (failure column and d)
// otherwise.
func checkFactorFrom(t *testing.T, a, b *Dense, p int) {
	t.Helper()
	want, _, wantErr := naiveCholesky(a)

	var src Cholesky
	if err := src.Factor(b); err != nil {
		t.Fatalf("source factor of order %d: %v", b.rows, err)
	}
	dirty := Cholesky{}
	if err := dirty.Factor(Identity(a.rows + 3)); err != nil {
		t.Fatal(err)
	}
	var plain, fresh, alias Cholesky
	if err := alias.Factor(b); err != nil {
		t.Fatal(err)
	}
	got := []struct {
		name string
		c    *Cholesky
		err  error
	}{
		{"Factor", &plain, plain.Factor(a)},
		{"fresh", &fresh, fresh.FactorFrom(a, &src, p)},
		{"dirty", &dirty, dirty.FactorFrom(a, &src, p)},
		{"aliased", &alias, alias.FactorFrom(a, &alias, p)},
	}
	for _, g := range got {
		if wantErr != nil {
			if !errors.Is(g.err, ErrSingular) || g.err.Error() != wantErr.Error() {
				t.Fatalf("%s n=%d m=%d p=%d: error %v, want %v", g.name, a.rows, b.rows, p, g.err, wantErr)
			}
			continue
		}
		if g.err != nil {
			t.Fatalf("%s n=%d m=%d p=%d: %v", g.name, a.rows, b.rows, p, g.err)
		}
		if !bitsEqual(g.c.L(), want) {
			t.Fatalf("%s n=%d m=%d p=%d: factor differs from the column-ordered loop", g.name, a.rows, b.rows, p)
		}
	}
}

// TestCholeskyFactorFromBitIdentical pins Factor and FactorFrom to the
// column-ordered loop bit for bit on random SPD matrices, random prefixes
// and sources both smaller and larger than the target, plus non-PD targets
// whose failure lies past the shared prefix.
func TestCholeskyFactorFromBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		m := 1 + r.Intn(45)
		lim := n
		if m < lim {
			lim = m
		}
		p := r.Intn(lim + 1)
		a := randomSPDGram(r, n)
		if trial%4 == 3 && p < n {
			// Break positive definiteness past the prefix.
			q := p + r.Intn(n-p)
			a.data[q*n+q] = -1
		}
		checkFactorFrom(t, a, leadingWith(r, a, p, m), p)
	}
	// At and above cholBlockMin FactorFrom dispatches to the blocked Factor.
	a := randomSPDGram(r, cholBlockMin+2)
	checkFactorFrom(t, a, leadingWith(r, a, 5, 9), 5)
}

// TestCholeskyFactorFromShape pins the argument checks: a prefix longer
// than either order is a shape error, not a silent truncation.
func TestCholeskyFactorFromShape(t *testing.T) {
	var src, c Cholesky
	if err := src.Factor(Identity(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.FactorFrom(Identity(5), &src, 4); !errors.Is(err, ErrShape) {
		t.Fatalf("prefix past source order: %v, want ErrShape", err)
	}
	if err := c.FactorFrom(Identity(2), &src, 3); !errors.Is(err, ErrShape) {
		t.Fatalf("prefix past target order: %v, want ErrShape", err)
	}
	if err := c.FactorFrom(Zeros(2, 3), &src, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square target: %v, want ErrShape", err)
	}
}

// FuzzCholeskyFactorFrom drives Factor and FactorFrom against the
// column-ordered loop on fuzzed matrices: a target of order n, a source of
// order m sharing the target's leading p×p block, and a target that is
// non-PD past the prefix one time in eight. The factor must match bit for
// bit, or fail at the same column with the same d.
func FuzzCholeskyFactorFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 5, 3, 1, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15})
	f.Add([]byte("\x0c\x11\x07\x00 non-dominant tail fails past the prefix \x80\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		next := func() byte {
			if off < len(data) {
				b := data[off]
				off++
				return b
			}
			return 0
		}
		n := int(next())%24 + 1
		m := int(next())%24 + 1
		lim := n
		if m < lim {
			lim = m
		}
		p := int(next()) % (lim + 1)
		dominant := next()%8 != 0
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := fuzzValue(next())
				a.data[i*n+j] = v
				a.data[j*n+i] = v
			}
			if dominant || i < p {
				a.data[i*n+i] = float64(n+m) * 40
			}
		}
		b := Zeros(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j <= i; j++ {
				v := fuzzValue(next())
				if i < p {
					v = a.data[i*n+j]
				}
				b.data[i*m+j] = v
				b.data[j*m+i] = v
			}
			if i >= p {
				b.data[i*m+i] = float64(n+m) * 40
			}
		}
		checkFactorFrom(t, a, b, p)
	})
}
