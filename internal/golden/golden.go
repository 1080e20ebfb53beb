// Package golden holds slow, obviously-correct reference implementations
// of the repository's error-correcting codes, plus differential drivers
// that cross-check the optimized codecs against them.
//
// The optimized packages (internal/bch, internal/hamming, internal/ecc)
// earn their speed with remainder-based syndromes, closed-form locator
// roots, position-indexed encode tables, dense constant-multiplication
// tables and stack-resident scratch arrays.
// None of that appears here: RefBCH encodes by literal polynomial
// division over GF(2) (gf2.Poly2.Mod), evaluates syndromes bit by bit
// with textbook field arithmetic, and runs an exhaustive Chien scan;
// RefSECDED decodes by brute-force single-bit-flip search over the full
// codeword. The reference models are therefore easy to audit against
// the paper (Section III-D/E) and against Lin & Costello, and the
// differential drivers in diff.go pin the optimized codecs to them over
// randomized and adversarial inputs: error weights 0..t+2, burst errors,
// extension-bit flips, and errors at positions the shortened code
// leaves out.
//
// The drivers deliberately compare only the public contract — the
// (data, Result) pair returned by Decode and the parity word returned by
// Encode — so internal/bch remains free to reorganize its pipeline as
// long as observable behaviour is preserved.
package golden
