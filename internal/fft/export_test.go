package fft

// The O(M²) direct sums and the size sweep, shared with the external
// reference tests in spectral_test.go.
var (
	NaiveCosCoeffs = naiveCosCoeffs
	NaiveEvalCos   = naiveEvalCos
	NaiveEvalSin   = naiveEvalSin
	RealTestSizes  = realTestSizes
)
