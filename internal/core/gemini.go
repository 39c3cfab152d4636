// Package core implements Gemini, the paper's contribution: a
// cross-layer page coalescing system that turns mis-aligned huge pages
// into well-aligned ones (guest huge pages backed by host huge pages)
// with low overhead.
//
// The implementation follows §3–§5 of the paper:
//
//   - MHPS (misaligned huge page scanner, host side): periodically
//     scans guest process page tables and the VM page table (EPT),
//     labels every huge page with its layer and guest physical
//     address, and diffs the two sets to find mis-aligned pages and
//     classify them as type-1 (no pages mapped at the other layer) or
//     type-2 (partially mapped).
//   - HB (huge booking): temporarily reserves the huge-page-sized
//     memory regions corresponding to type-1 mis-aligned pages, so
//     they can still become well-aligned cheaply. Booking timeouts
//     adapt via Algorithm 1.
//   - EMA (enhanced memory allocator): per-VMA offset descriptors in a
//     self-organizing list align guest physical placement to guest
//     virtual huge boundaries, using the Gemini contiguity list
//     (next-fit) for whole-VMA placement and sub-VMA re-anchoring when
//     a placement becomes unavailable; with huge preallocation when a
//     region is >= half filled and fragmentation is low.
//   - Huge bucket: freed well-aligned huge regions are parked and
//     preferentially reused, which preserves alignment across workload
//     restarts in a reused VM.
//   - MHPP (promoter): steers each layer's coalescing toward the base
//     pages under type-2 mis-aligned huge pages before anything else.
//
// Use New to create the coordinated guest/host policy pair for one VM,
// then Attach after machine.AddVM.
//
// See DESIGN.md §2 (system inventory, "Gemini core") for the design
// and DESIGN.md §3 for the experiments it is evaluated in.
package core

import (
	"cmp"
	"slices"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// Config tunes Gemini. Zero values select defaults; the Disable*
// fields exist for the ablation experiments (Figure 16).
type Config struct {
	// DisableEMA turns off offset-descriptor placement (falls back to
	// untargeted base allocation).
	DisableEMA bool
	// DisableBooking turns off huge booking (type-1 protection).
	DisableBooking bool
	// DisableBucket turns off the huge bucket.
	DisableBucket bool
	// DisablePromoter turns off type-2 targeted promotion.
	DisablePromoter bool
	// DisableAdaptiveTimeout freezes the booking timeout at
	// InitialTimeout instead of running Algorithm 1.
	DisableAdaptiveTimeout bool

	// InitialTimeout is the starting booking timeout in ticks
	// (T_init in Algorithm 1).
	InitialTimeout float64
	// AdjustPeriod is P in Algorithm 1: ticks per measurement window.
	AdjustPeriod int
	// MaxBookings caps simultaneously booked regions per layer.
	MaxBookings int
	// BookBudget caps new bookings per tick.
	BookBudget int
	// HostBackBudget caps eager host backings (type-1 fixes) per
	// promotion round.
	HostBackBudget int
	// PromoteBudget caps type-2 targeted promotions per layer per
	// promotion round.
	PromoteBudget int
	// PromotePeriod is the number of ticks between promotion rounds,
	// matching the capacity of the asynchronous promoters Gemini is
	// compared against ("without increasing the total number of huge
	// pages", §2.3).
	PromotePeriod int
	// PreallocThreshold is the claimed-page count that triggers huge
	// preallocation (the paper selected 256 experimentally).
	PreallocThreshold int
	// PreallocMaxFMFI is the fragmentation ceiling for preallocation
	// (the paper uses FMFI <= 0.5).
	PreallocMaxFMFI float64
	// BucketTTL is how many ticks a freed well-aligned block stays in
	// the huge bucket before returning to the allocator.
	BucketTTL uint64
	// BucketMinFree returns bucket blocks to the OS when free memory
	// drops below this fraction of guest memory.
	BucketMinFree float64
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{
		InitialTimeout:    32,
		AdjustPeriod:      8,
		MaxBookings:       128,
		BookBudget:        16,
		HostBackBudget:    2,
		PromoteBudget:     2,
		PromotePeriod:     2,
		PreallocThreshold: 256,
		PreallocMaxFMFI:   0.5,
		BucketTTL:         256,
		BucketMinFree:     0.05,
	}
}

// Gemini is the per-VM coordinator shared by the guest and host
// policies. It owns the MHPS results both sides consult.
type Gemini struct {
	cfg Config
	vm  *machine.VM

	// MHPS results, refreshed once per machine tick. Slices are
	// indexed by guest physical huge index (guest physical memory is
	// a dense [0, N) space, so flat arrays beat maps on scan speed).
	guestHugeGPA    []bool // guest maps a huge page onto this GPA region
	hostHugeGPA     []bool // EPT maps this GPA region huge
	guestPresence   []int32
	dominantGVABase map[uint64]uint64
	dominantCount   map[uint64]int
	// reverse lists GVA->frame pairs for base pages mapped into
	// host-huge regions (type-2 fix material only, to bound memory),
	// in ascending VA order. The lists share revBuf, which each scan
	// reuses; policies read them only until the next scan.
	reverse map[uint64][]RevEntry
	revBuf  []RevEntry

	guest *GuestPolicy
	host  *HostPolicy

	scanTick uint64 // machine tick of the last MHPS scan

	// ScanCount counts MHPS scans (introspection).
	ScanCount uint64
}

// New creates the coordinated policy pair for one VM. Call
// machine.AddVM with the two policies, then Attach with the result.
func New(cfg Config) (*Gemini, *GuestPolicy, *HostPolicy) {
	d := DefaultConfig()
	if cfg.InitialTimeout == 0 {
		cfg.InitialTimeout = d.InitialTimeout
	}
	if cfg.AdjustPeriod == 0 {
		cfg.AdjustPeriod = d.AdjustPeriod
	}
	if cfg.MaxBookings == 0 {
		cfg.MaxBookings = d.MaxBookings
	}
	if cfg.BookBudget == 0 {
		cfg.BookBudget = d.BookBudget
	}
	if cfg.HostBackBudget == 0 {
		cfg.HostBackBudget = d.HostBackBudget
	}
	if cfg.PromoteBudget == 0 {
		cfg.PromoteBudget = d.PromoteBudget
	}
	if cfg.PromotePeriod == 0 {
		cfg.PromotePeriod = d.PromotePeriod
	}
	if cfg.PreallocThreshold == 0 {
		cfg.PreallocThreshold = d.PreallocThreshold
	}
	if cfg.PreallocMaxFMFI == 0 {
		cfg.PreallocMaxFMFI = d.PreallocMaxFMFI
	}
	if cfg.BucketTTL == 0 {
		cfg.BucketTTL = d.BucketTTL
	}
	if cfg.BucketMinFree == 0 {
		cfg.BucketMinFree = d.BucketMinFree
	}
	g := &Gemini{
		cfg:             cfg,
		dominantGVABase: make(map[uint64]uint64),
		dominantCount:   make(map[uint64]int),
		reverse:         make(map[uint64][]RevEntry),
	}
	g.guest = newGuestPolicy(g)
	g.host = newHostPolicy(g)
	return g, g.guest, g.host
}

// Attach binds the coordinator to its VM. Must be called once, after
// machine.AddVM.
func (g *Gemini) Attach(vm *machine.VM) {
	g.vm = vm
	regions := (vm.GuestPages() + mem.PagesPerHuge - 1) / mem.PagesPerHuge
	g.guestHugeGPA = make([]bool, regions)
	g.hostHugeGPA = make([]bool, regions)
	g.guestPresence = make([]int32, regions)
}

// VM returns the attached VM (nil before Attach).
func (g *Gemini) VM() *machine.VM { return g.vm }

// Scan runs MHPS over the guest process page table and the EPT. The
// scan cost is charged to the host layer (kgeminid runs in the host,
// §5). Idempotent within a tick.
//
// Huge pages at both layers come from PMD-level scans. Guest base
// presence per GPA region is read from the guest table's per-region
// reverse-map counts, and the type-2 material (reverse lists and the
// dominant guest virtual region) is built only for host-huge regions
// that still hold guest base pages, from their 512 reverse entries
// sorted by VA. The results and the charged cycles are those of a
// full walk of every guest PTE (TestScanMatchesFullWalk).
func (g *Gemini) Scan(nowTick uint64) {
	if g.vm == nil {
		return
	}
	if g.ScanCount > 0 && nowTick == g.scanTick {
		return
	}
	g.scanTick = nowTick
	g.ScanCount++

	clear(g.guestHugeGPA)
	clear(g.hostHugeGPA)
	clear(g.dominantGVABase)
	clear(g.dominantCount)
	clear(g.reverse)

	ept := g.vm.EPT
	guest := g.vm.Guest

	// Host-side huge pages, labelled by guest physical address.
	nRegions := uint64(len(g.hostHugeGPA))
	ept.Table.ScanHuge(func(m pagetable.Mapping) bool {
		if hi := m.VA >> mem.HugeShift; hi < nRegions {
			g.hostHugeGPA[hi] = true
		}
		ept.Stats.BackgroundCycles += ept.Costs.ScanRegion
		return true
	})
	guest.Table.ScanHuge(func(m pagetable.Mapping) bool {
		if hi := m.Frame / mem.PagesPerHuge; hi < nRegions {
			g.guestHugeGPA[hi] = true
		}
		return true
	})
	// Per-region guest base presence, and for host-huge regions the
	// guest virtual huge region with the most pages mapped into it —
	// the promoter's target for type-2 fixes.
	g.revBuf = g.revBuf[:0]
	withBase := uint64(0)
	for hi := range nRegions {
		n := guest.Table.RegionBasePages(hi)
		g.guestPresence[hi] = int32(n)
		if n == 0 || !g.hostHugeGPA[hi] {
			continue
		}
		withBase++
		first := len(g.revBuf)
		guest.Table.RegionReverse(hi, func(m pagetable.Mapping) {
			g.revBuf = append(g.revBuf, RevEntry{VA: m.VA, Frame: m.Frame})
		})
		rev := g.revBuf[first:len(g.revBuf):len(g.revBuf)]
		slices.SortFunc(rev, func(a, b RevEntry) int { return cmp.Compare(a.VA, b.VA) })
		g.reverse[hi] = rev
		var bestVA uint64
		best := 0
		for i := 0; i < len(rev); {
			base, j := rev[i].VA&^uint64(mem.HugeSize-1), i+1
			for j < len(rev) && rev[j].VA&^uint64(mem.HugeSize-1) == base {
				j++
			}
			if j-i > best {
				bestVA, best = base, j-i
			}
			i = j
		}
		g.dominantGVABase[hi] = bestVA
		g.dominantCount[hi] = best
	}
	ept.Stats.BackgroundCycles += withBase * ept.Costs.ScanRegion
}

// MisalignedHostRegions returns GPA huge indices where the host maps a
// huge page that the guest does not match (candidates for guest-side
// fixes), split by type: type-1 regions have no guest pages mapped
// into them, type-2 regions are partially mapped.
func (g *Gemini) MisalignedHostRegions() (type1, type2 []uint64) {
	for i, hh := range g.hostHugeGPA {
		hi := uint64(i)
		if !hh || g.guestHugeGPA[hi] {
			continue
		}
		if g.guestPresence[hi] == 0 {
			type1 = append(type1, hi)
		} else {
			type2 = append(type2, hi)
		}
	}
	return type1, type2
}

// MisalignedGuestRegions returns GPA huge indices where the guest maps
// a huge page that the host does not back hugely (candidates for
// host-side fixes), split by type against EPT presence.
func (g *Gemini) MisalignedGuestRegions() (type1, type2 []uint64) {
	if g.vm == nil {
		return nil, nil
	}
	for i, gh := range g.guestHugeGPA {
		hi := uint64(i)
		if !gh || g.hostHugeGPA[hi] {
			continue
		}
		gpa := hi * mem.HugeSize
		_, isHuge, present := g.vm.EPT.Table.LookupHugeRegion(gpa)
		if isHuge {
			continue // raced with a promotion since the scan
		}
		if present == 0 {
			type1 = append(type1, hi)
		} else {
			type2 = append(type2, hi)
		}
	}
	return type1, type2
}

// RevEntry is one guest base mapping discovered by the scanner.
type RevEntry struct {
	// VA is the guest virtual address of the mapping.
	VA uint64
	// Frame is the guest physical frame it points to.
	Frame uint64
}

// ReverseMappings returns the guest base mappings pointing into the
// GPA region, as of the last scan (possibly stale; callers must
// re-validate each entry against the live table).
func (g *Gemini) ReverseMappings(gpaHugeIdx uint64) []RevEntry {
	return g.reverse[gpaHugeIdx]
}

// DominantGVA returns the guest virtual huge region with the most base
// pages mapped into the GPA region, and how many.
func (g *Gemini) DominantGVA(gpaHugeIdx uint64) (gvaBase uint64, pages int, ok bool) {
	n, exists := g.dominantCount[gpaHugeIdx]
	if !exists {
		return 0, 0, false
	}
	return g.dominantGVABase[gpaHugeIdx], n, true
}

// HostHugeAt reports whether the latest scan saw a host huge page at
// the GPA region.
func (g *Gemini) HostHugeAt(gpaHugeIdx uint64) bool {
	return gpaHugeIdx < uint64(len(g.hostHugeGPA)) && g.hostHugeGPA[gpaHugeIdx]
}

// GuestHugeAt reports whether the latest scan saw a guest huge page at
// the GPA region.
func (g *Gemini) GuestHugeAt(gpaHugeIdx uint64) bool {
	return gpaHugeIdx < uint64(len(g.guestHugeGPA)) && g.guestHugeGPA[gpaHugeIdx]
}
