package mem

// The built-in backends. "sram", "edram" and "ddr3" adapt the existing
// functional models with the exact Table II/III constants at one
// nominal operating point — the refactor-without-behavior-change half
// of the subsystem. "approx-dram" and "reram" are the new scenario
// axes: EDEN-style reduced-voltage DRAM points and a Hamun-style
// wear-charged non-volatile technology.

import (
	"fmt"

	"rana/internal/edram"
	"rana/internal/energy"
	"rana/internal/retention"
	"rana/internal/sram"
)

func init() {
	Register(sramBackend{})
	Register(edramBackend{name: "edram", desc: "embedded DRAM, Table II/III constants, refresh-optimized (paper default)",
		points: []OperatingPoint{edramNominal}})
	Register(edramBackend{name: "approx-dram", desc: "EDEN-style approximate DRAM: reduced-voltage operating points trade access/refresh energy against retention and bit errors",
		points: approxPoints})
	Register(reramBackend{})
	Register(ddr3Backend{})
}

// edramNominal is the paper's eDRAM corner — exactly the BufferTech
// constants, so pricing through it is bit-identical to energy.System.
var edramNominal = OperatingPoint{
	Name:           Nominal,
	AccessPJ:       energy.EDRAMAccessPJ,
	RefreshPJ:      energy.EDRAMRefreshPJ,
	RetentionScale: 1,
	LatencyNS:      energy.EDRAMLatencyNS,
}

// approxPoints are EDEN-style voltage steps (EDEN, MICRO 2019): dynamic
// access and refresh energy scale with VDD² while cells leak from a
// lower charge, shrinking retention and raising the raw bit-error rate.
// The factors are the first-order CMOS scaling model, not measurements;
// what matters architecturally is the shape of the trade — each step is
// strictly cheaper per access but refreshes more often, so the argmin
// genuinely depends on a layer's lifetime profile — and that the
// bit-error rate gates which steps a network's resilience admits.
var approxPoints = []OperatingPoint{
	edramNominal,
	{
		// 0.9×VDD: energy ×0.81, retention roughly halves.
		Name:           "v0.9",
		AccessPJ:       energy.EDRAMAccessPJ * 0.81,
		RefreshPJ:      energy.EDRAMRefreshPJ * 0.81,
		RetentionScale: 0.5,
		BitErrorRate:   1e-7,
		LatencyNS:      energy.EDRAMLatencyNS,
	},
	{
		// 0.8×VDD: energy ×0.64, retention ×0.25; the error rate sits
		// at the paper's tolerable 10⁻⁵, so the default budget admits
		// it only at the boundary.
		Name:           "v0.8",
		AccessPJ:       energy.EDRAMAccessPJ * 0.64,
		RefreshPJ:      energy.EDRAMRefreshPJ * 0.64,
		RetentionScale: 0.25,
		BitErrorRate:   1e-5,
		LatencyNS:      energy.EDRAMLatencyNS,
	},
	{
		// 0.7×VDD: energy ×0.49, retention ×0.1. The raw error rate is
		// past what the paper's retention-aware training tolerates, so
		// the default error budget excludes this point — selecting it
		// requires an explicitly raised budget (a network retrained on
		// a more aggressive resilience curve).
		Name:           "v0.7",
		AccessPJ:       energy.EDRAMAccessPJ * 0.49,
		RefreshPJ:      energy.EDRAMRefreshPJ * 0.49,
		RetentionScale: 0.1,
		BitErrorRate:   2e-4,
		LatencyNS:      energy.EDRAMLatencyNS,
	},
}

// edramBackend adapts internal/edram + internal/retention: both the
// default "edram" backend (one nominal point) and "approx-dram" (the
// EDEN point ladder) — same physics, different point enumeration.
type edramBackend struct {
	name   string
	desc   string
	points []OperatingPoint
}

func (b edramBackend) Name() string             { return b.name }
func (b edramBackend) Description() string      { return b.desc }
func (b edramBackend) Role() Role               { return RoleBuffer }
func (b edramBackend) Refreshes() bool          { return true }
func (b edramBackend) Points() []OperatingPoint { return b.points }
func (b edramBackend) BankAreaMM2() float64     { return energy.EDRAMBankAreaMM2 }

func (b edramBackend) Retention(p OperatingPoint) (*retention.Distribution, error) {
	d := retention.Typical()
	if p.RetentionScale == 1 {
		return d, nil
	}
	return d.Scaled(p.RetentionScale)
}

func (b edramBackend) NewBuffer(banks, wordsPerBank int, seed uint64, p OperatingPoint) (Buffer, error) {
	d, err := b.Retention(p)
	if err != nil {
		return nil, err
	}
	return edram.New(banks, wordsPerBank, d, seed)
}

// sramBackend adapts internal/sram — the S+ID baseline technology.
type sramBackend struct{}

func (sramBackend) Name() string { return "sram" }
func (sramBackend) Description() string {
	return "latch-based SRAM, never refreshes, Table II/III constants"
}
func (sramBackend) Role() Role      { return RoleBuffer }
func (sramBackend) Refreshes() bool { return false }
func (sramBackend) Points() []OperatingPoint {
	return []OperatingPoint{{
		Name:           Nominal,
		AccessPJ:       energy.SRAMAccessPJ,
		RetentionScale: 1,
		LatencyNS:      energy.SRAMLatencyNS,
	}}
}
func (sramBackend) BankAreaMM2() float64 { return energy.SRAMBankAreaMM2 }
func (sramBackend) Retention(OperatingPoint) (*retention.Distribution, error) {
	return nil, nil
}
func (sramBackend) NewBuffer(banks, wordsPerBank int, _ uint64, _ OperatingPoint) (Buffer, error) {
	return sram.New(banks, wordsPerBank)
}

// reramBackend is a Hamun-style non-volatile resistive technology: no
// refresh at all (retention is effectively unbounded), cheap reads, but
// every write ages the cell — so the energy model charges an amortized
// wear cost per buffer write, steering the search away from
// write-heavy schedules (OD's read-modify-write accumulation) in a way
// the paper's technologies never did. The numbers are representative
// 65 nm ReRAM figures (reads a little cheaper than eDRAM, wear of the
// same order as the access itself), chosen so wear genuinely moves the
// argmin rather than vanishing in the noise.
type reramBackend struct{}

// reramPoints: nominal uses conservative write verification (higher
// amortized wear); "fast-write" relaxes verification per Hamun —
// roughly 2.5× less ageing charge at a small raw error rate.
var reramPoints = []OperatingPoint{
	{
		Name:           Nominal,
		AccessPJ:       7.6,
		WearPJ:         23.0,
		RetentionScale: 1,
		LatencyNS:      4.8,
	},
	{
		Name:           "fast-write",
		AccessPJ:       7.6,
		WearPJ:         9.2,
		RetentionScale: 1,
		BitErrorRate:   1e-6,
		LatencyNS:      3.1,
	},
}

func (reramBackend) Name() string { return "reram" }
func (reramBackend) Description() string {
	return "Hamun-style non-volatile ReRAM: refresh-free, ageing cost charged per buffer write"
}
func (reramBackend) Role() Role               { return RoleBuffer }
func (reramBackend) Refreshes() bool          { return false }
func (reramBackend) Points() []OperatingPoint { return reramPoints }
func (reramBackend) BankAreaMM2() float64     { return 0.021 }
func (reramBackend) Retention(OperatingPoint) (*retention.Distribution, error) {
	return nil, nil
}

// NewBuffer: non-volatile storage never decays, so the functional model
// is the SRAM buffer (wear affects lifetime economics, not stored
// values at simulation timescales).
func (reramBackend) NewBuffer(banks, wordsPerBank int, _ uint64, _ OperatingPoint) (Buffer, error) {
	return sram.New(banks, wordsPerBank)
}

// ddr3Backend adapts internal/ddr: the off-chip store. It participates
// in the registry and catalog (the full hierarchy is backend-shaped)
// but carries RoleOffChip — it cannot be selected as the on-chip
// buffer, and its refresh is the DIMM controller's business, invisible
// at the paper's energy granularity.
type ddr3Backend struct{}

func (ddr3Backend) Name() string { return "ddr3" }
func (ddr3Backend) Description() string {
	return "off-chip DDR3, 2112.9 pJ per 16-bit access (Table III)"
}
func (ddr3Backend) Role() Role      { return RoleOffChip }
func (ddr3Backend) Refreshes() bool { return false }
func (ddr3Backend) Points() []OperatingPoint {
	return []OperatingPoint{{
		Name:           Nominal,
		AccessPJ:       energy.DDRAccessPJ,
		RetentionScale: 1,
	}}
}
func (ddr3Backend) BankAreaMM2() float64 { return 0 }
func (ddr3Backend) Retention(OperatingPoint) (*retention.Distribution, error) {
	return nil, nil
}
func (ddr3Backend) NewBuffer(int, int, uint64, OperatingPoint) (Buffer, error) {
	return nil, fmt.Errorf("mem: ddr3 is an off-chip backend, not a buffer")
}
