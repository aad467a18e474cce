package dpl

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// fixedCases are the values %f must format as strconv does: signed
// zeros, subnormals, the specials, exact ties at the seventh decimal
// (odd multiples of 2^-7, alone and past integer parts), the boundaries
// of the word-sized paths, and values whose %f needs more than 18
// digits.
func fixedCases() []float64 {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 5e-7, 4.9999999e-7, 1.5e-6, 2.5e-6, 0.9999995, 999999.9999995,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		123456789012.345678, 123456789012345.678, 1e15 + 0.5, 0x1p52 + 0.5, 0x1p53, 0x1p53 + 2,
		0x1p63, 0x1p64 - 2048, 0x1p64, 0x1p64 + 4096, 1e19, 1e20, 1e23, 1e100, 1e300, 12345678.9,
	}
	for j := 1.0; j < 256; j += 2 {
		for _, ip := range []float64{0, 1, 1e6, 0x1p40} {
			cases = append(cases, ip+j/128, -(ip + j/128))
		}
	}
	for k := -30; k <= 80; k++ {
		p := math.Ldexp(1, k)
		cases = append(cases, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), math.Pow10(k%23))
	}
	r := rand.New(rand.NewPCG(42, 42))
	for range 20000 {
		cases = append(cases,
			math.Float64frombits(r.Uint64()),
			math.Ldexp(r.Float64(), r.IntN(140)-40), // around the millionths and the integer-part boundaries
		)
	}
	return cases
}

func TestAppendFixed6MatchesStrconv(t *testing.T) {
	for _, v := range fixedCases() {
		if got, want := string(appendFixed6(nil, v)), strconv.FormatFloat(v, 'f', 6, 64); got != want {
			t.Errorf("%%f of %v (bits %#x) = %s, strconv %s", v, math.Float64bits(v), got, want)
		}
	}
}

// FuzzAppendFixed6MatchesStrconv holds %f to strconv on any float64 bit
// pattern.
func FuzzAppendFixed6MatchesStrconv(f *testing.F) {
	for _, v := range fixedCases()[:200] {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if got, want := string(appendFixed6(nil, v)), strconv.FormatFloat(v, 'f', 6, 64); got != want {
			t.Errorf("%%f of bits %#x = %s, strconv %s", b, got, want)
		}
	})
}
