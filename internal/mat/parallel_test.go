package mat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/par"
)

// withParallelKernels registers a fresh pool of the given width and drops
// the parallel dispatch thresholds to 1 so even tiny kernels fan out, then
// restores everything. Tests in this package do not use t.Parallel, so the
// global mutation is safe.
func withParallelKernels(t testing.TB, workers int, fn func()) {
	t.Helper()
	oldMul, oldRows := parMulMinFlops, parFactorMinRows
	parMulMinFlops, parFactorMinRows = 1, 1
	pool := par.NewPool(context.Background(), workers)
	SetPool(pool)
	defer func() {
		SetPool(nil)
		pool.Close()
		parMulMinFlops, parFactorMinRows = oldMul, oldRows
	}()
	fn()
}

func TestParallelMulIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Widths ≥ 2 j-tiles so the pool actually dispatches; odd remainders and
	// tall/thin extremes straddle the tile edges.
	shapes := [][3]int{
		{3, 5, mulTileJ + 1},
		{40, 40, 2 * mulTileJ},
		{mulTileK + 1, mulTileK - 1, 2*mulTileJ + 7},
		{97, 61, 3*mulTileJ + 31},
		{1, 130, 4 * mulTileJ},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := mixedDense(rng, m, k)
			b := mixedDense(rng, k, n)
			want := naiveMulInto(nil, a, b)
			got := ReuseDense(nil, m, n)
			withParallelKernels(t, workers, func() {
				blockedMulInto(got, a, b)
			})
			if !Equal(got, want) {
				t.Errorf("workers=%d: parallel MulInto %dx%dx%d differs from naive loop", workers, m, k, n)
			}
		}
	}
}

func TestParallelCholeskyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{cholBlockMin, 147, 200} {
			a := Zeros(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					v := float64(rng.Intn(255)-127) / 8
					if rng.Intn(5) == 0 {
						v = 0
					}
					a.data[i*n+j] = v
					a.data[j*n+i] = v
				}
				a.data[i*n+i] = float64(n) * 40
			}
			want, _, err := naiveCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: reference factorization failed: %v", n, err)
			}
			var c Cholesky
			withParallelKernels(t, workers, func() {
				if err := c.Factor(a); err != nil {
					t.Fatalf("n=%d workers=%d: Factor: %v", n, workers, err)
				}
			})
			if !Equal(c.l, want) {
				t.Errorf("workers=%d n=%d: parallel Cholesky factor differs from naive loop", workers, n)
			}
		}
	}
}

func TestParallelCholeskyNonPDSameColumn(t *testing.T) {
	// The failure path must be byte-for-byte too: same column, regardless of
	// how many workers ran the trailing updates.
	n := cholBlockMin + 20
	a := Identity(n)
	a.Set(100, 100, -1)
	var c Cholesky
	withParallelKernels(t, 4, func() {
		err := c.Factor(a)
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("Factor error = %v, want ErrSingular", err)
		}
		if !strings.Contains(err.Error(), "column 100") {
			t.Errorf("Factor error %q, want failure at column 100", err)
		}
	})
}

func TestParallelLUBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{luBlockMin, 147, 200} {
			a := mixedDense(rng, n, n)
			for i := 0; i < n; i++ {
				a.data[i*n+i] += float64((i%7)-3) * 2
			}
			want, wantPiv, err := naiveLU(a)
			if err != nil {
				t.Fatalf("n=%d: reference factorization failed: %v", n, err)
			}
			var f LU
			withParallelKernels(t, workers, func() {
				if err := f.Factor(a); err != nil {
					t.Fatalf("n=%d workers=%d: Factor: %v", n, workers, err)
				}
			})
			if !Equal(f.lu, want) {
				t.Errorf("workers=%d n=%d: parallel LU factor differs from naive loop", workers, n)
			}
			for i := range wantPiv {
				if f.piv[i] != wantPiv[i] {
					t.Errorf("workers=%d n=%d: pivot sequence diverged at %d", workers, n, i)
					break
				}
			}
		}
	}
}

func TestForceSerialDisablesPool(t *testing.T) {
	pool := par.NewPool(context.Background(), 2)
	defer pool.Close()
	SetPool(pool)
	defer SetPool(nil)
	if activePool() != pool {
		t.Fatal("registered pool not active")
	}
	SetForceSerial(true)
	defer SetForceSerial(false)
	if activePool() != nil {
		t.Fatal("ForceSerial did not disable the kernel pool")
	}
	// And the kernels still produce the exact serial result.
	rng := rand.New(rand.NewSource(41))
	a := mixedDense(rng, 40, 40)
	b := mixedDense(rng, 40, 2*mulTileJ)
	got := ReuseDense(nil, 40, 2*mulTileJ)
	blockedMulInto(got, a, b)
	if !Equal(got, naiveMulInto(nil, a, b)) {
		t.Error("ForceSerial result differs from naive loop")
	}
}

func TestParallelDispatchGates(t *testing.T) {
	pool := par.NewPool(context.Background(), 4)
	defer pool.Close()
	SetPool(pool)
	defer SetPool(nil)
	// At default thresholds, paper-scale work must never reach the pool:
	// the dispatch predicates themselves are the contract.
	if n := 45; n*n*n >= parMulMinFlops {
		t.Errorf("paper-scale product %d³ would reach the parallel matmul", n)
	}
	if cholBlockMin >= parFactorMinRows {
		t.Errorf("cholBlockMin %d ≥ parFactorMinRows %d: smallest blocked factorization would dispatch", cholBlockMin, parFactorMinRows)
	}
	// Sanity: identical results either side of the gate for a product that
	// does dispatch at default thresholds.
	rng := rand.New(rand.NewSource(43))
	m, k, n := 130, 130, 2 * mulTileJ // 4.3M flops ≥ parMulMinFlops
	if m*k*n < parMulMinFlops {
		t.Fatalf("test shape below parMulMinFlops")
	}
	a := mixedDense(rng, m, k)
	b := mixedDense(rng, k, n)
	got := ReuseDense(nil, m, n)
	blockedMulInto(got, a, b)
	if !Equal(got, naiveMulInto(nil, a, b)) {
		t.Error("above-gate parallel MulInto differs from naive loop")
	}
}

// FuzzParallelMulInto pins the tentpole bit-identity claim under fuzzing:
// at fuzzer-chosen shapes and worker counts — including workers=1 and
// widths below one j-tile, where the pool gate declines and the serial
// path runs — the pooled kernel matches the naive loop bit-for-bit.
func FuzzParallelMulInto(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 2, 130, 8, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte("\x05\x01\x05\xff parallel tiles with mixed zero entries \x00\xff\x80"))
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
		workers := int(next())%4 + 1
		m := int(next())%(mulTileK+5) + 1
		k := int(next())%(mulTileK+5) + 1
		// Widths span sub-tile (serial fallback) through 3 tiles (real fan-out).
		n := int(next())%(2*mulTileJ+mulTileK) + 1
		a := fuzzDense(data, &off, m, k)
		b := fuzzDense(data, &off, k, n)
		want := naiveMulInto(nil, a, b)
		got := ReuseDense(nil, m, n)
		withParallelKernels(t, workers, func() {
			blockedMulInto(got, a, b)
		})
		if !Equal(got, want) {
			t.Fatalf("workers=%d: parallel MulInto %dx%dx%d differs from naive loop", workers, m, k, n)
		}
	})
}

// FuzzParallelCholesky drives the blocked factorization with a live kernel
// pool (thresholds dropped to 1 so every trailing update fans out) against
// the naive reference: bit-identical factors on success and the same
// failure column otherwise, at fuzzer-chosen sizes and worker counts.
func FuzzParallelCholesky(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 99, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte("\x31\x02 non-dominant diagonal exercises the failure column \x00\x80"))
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
		workers := int(next())%4 + 1
		n := int(next())%(2*factorPanel+5) + 1
		dominant := next()%8 != 0
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := fuzzValue(next())
				a.data[i*n+j] = v
				a.data[j*n+i] = v
			}
			if dominant {
				a.data[i*n+i] = float64(n) * 40
			}
		}
		want, wantCol, wantErr := naiveCholesky(a)
		var c Cholesky
		l := ReuseDense(nil, n, n)
		c.l, c.n = l, n
		var err error
		withParallelKernels(t, workers, func() {
			err = c.factorBlocked(a, l, n)
		})
		if wantErr != nil {
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("workers=%d n=%d: naive failed at column %d but parallel returned %v", workers, n, wantCol, err)
			}
			if want := fmt.Sprintf("column %d", wantCol); !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d n=%d: parallel error %q, want failure at %s", workers, n, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("workers=%d n=%d: naive succeeded but parallel returned %v", workers, n, err)
		}
		if !Equal(l, want) {
			t.Fatalf("workers=%d n=%d: parallel Cholesky factor differs from naive loop", workers, n)
		}
	})
}

// FuzzParallelLU is the LU counterpart of FuzzParallelCholesky: identical
// storage and pivot sequence with the trailing updates fanned out over a
// fuzzer-chosen worker count.
func FuzzParallelLU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 99, 2, 3, 0, 5, 6, 0, 8, 9, 10, 0, 12, 13, 14, 0})
	f.Add([]byte("\x61\x03 pivot churn across panel boundaries \xff\x00\x7f\x80\x01"))
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
		workers := int(next())%4 + 1
		n := int(next())%(2*factorPanel+5) + 1
		a := fuzzDense(data, &off, n, n)
		want, wantPiv, wantErr := naiveLU(a)
		var f2 LU
		lu := ReuseDenseUnset(nil, n, n)
		copy(lu.data, a.data)
		piv := make([]int, n)
		for i := range piv {
			piv[i] = i
		}
		f2.lu, f2.piv, f2.n = lu, piv, n
		var err error
		withParallelKernels(t, workers, func() {
			err = f2.factorBlocked(lu, piv, n)
		})
		if wantErr != nil {
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("workers=%d n=%d: naive failed (%v) but parallel returned %v", workers, n, wantErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("workers=%d n=%d: naive succeeded but parallel returned %v", workers, n, err)
		}
		if !Equal(lu, want) {
			t.Fatalf("workers=%d n=%d: parallel LU factor differs from naive loop", workers, n)
		}
		for i := range wantPiv {
			if piv[i] != wantPiv[i] {
				t.Fatalf("workers=%d n=%d: pivot sequence diverged at %d: %d vs %d", workers, n, i, piv[i], wantPiv[i])
			}
		}
	})
}
