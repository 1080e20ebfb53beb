// Command eccinfo prints the parameters of every codec in the registry —
// correction strength, storage, generator polynomial, modelled hardware
// cost — and runs a demonstration encode/corrupt/decode cycle.
//
// Usage:
//
//	eccinfo [-demo ecc6] [-errors 6] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/bch"
	"repro/internal/ecc"
	"repro/internal/line"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eccinfo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		demo = flag.String("demo", "ecc6", "codec to demonstrate")
		nerr = flag.Int("errors", 6, "bit errors to inject in the demo")
		seed = flag.Int64("seed", 1, "demo RNG seed")
	)
	flag.Parse()
	if *nerr < 0 {
		return fmt.Errorf("-errors %d, want 0 or more", *nerr)
	}

	fmt.Println("Codec registry (per 64-byte line):")
	fmt.Printf("  %-12s %8s %8s %8s %10s %8s %10s\n",
		"name", "correct", "detect", "storage", "dec-cycles", "gates", "dec-pJ")
	for _, name := range ecc.Names() {
		c, err := ecc.ByName(name)
		if err != nil {
			return err
		}
		cost := ecc.DefaultCost(c)
		fmt.Printf("  %-12s %8d %8d %8d %10d %8d %10.1f\n",
			name, c.CorrectBits(), c.DetectBits(), c.StorageBits(),
			cost.DecodeCycles, cost.AreaGates, cost.DecodeEnergyPJ)
	}

	fmt.Println("\nBCH generator polynomials over GF(2^10), primitive poly x^10+x^3+1:")
	for t := 1; t <= 6; t++ {
		code, err := bch.New(t)
		if err != nil {
			return err
		}
		fmt.Printf("  t=%d (%d parity bits): g(x) = %v\n", t, code.ParityBits(), code.Generator())
	}

	fmt.Printf("\nDemo: %s with %d injected errors\n", *demo, *nerr)
	c, err := ecc.ByName(*demo)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var data line.Line
	for w := range data {
		data[w] = rng.Uint64()
	}
	check := c.Encode(data)
	bad := data
	for i := 0; i < *nerr; i++ {
		bad = bad.FlipBit(rng.Intn(line.Bits))
	}
	fmt.Printf("  original:  %s...\n", data.String()[:32])
	fmt.Printf("  corrupted: %s...\n", bad.String()[:32])
	got, res := c.Decode(bad, check)
	switch {
	case res.Uncorrectable:
		fmt.Println("  result: DETECTED UNCORRECTABLE (more errors than t)")
	case got == data:
		fmt.Printf("  result: corrected %d bit errors, data restored\n", res.CorrectedBits)
	default:
		fmt.Println("  result: MISCORRECTED (beyond design distance)")
	}
	return nil
}
