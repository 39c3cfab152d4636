package mem

import "testing"

func TestGeometryConstants(t *testing.T) {
	if PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096", PageSize)
	}
	if HugeSize != 2<<20 {
		t.Fatalf("HugeSize = %d, want 2MiB", HugeSize)
	}
	if PagesPerHuge != 512 {
		t.Fatalf("PagesPerHuge = %d, want 512", PagesPerHuge)
	}
	if 1<<HugeOrder != PagesPerHuge {
		t.Fatalf("HugeOrder %d inconsistent with PagesPerHuge %d", HugeOrder, PagesPerHuge)
	}
}

func TestPageSizeKind(t *testing.T) {
	if Base.String() != "base" || Huge.String() != "huge" {
		t.Errorf("String() = %q, %q", Base.String(), Huge.String())
	}
	if got := PageSizeKind(7).String(); got != "PageSizeKind(7)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestRegion(t *testing.T) {
	r := Region{Start: 100, Pages: 50}
	if r.End() != 150 {
		t.Errorf("End = %d", r.End())
	}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Errorf("Contains boundaries wrong")
	}
	if r.String() != "[0x64,0x96)" {
		t.Errorf("String = %q", r.String())
	}
}

func TestByteConversions(t *testing.T) {
	if BytesToPages(0) != 0 {
		t.Errorf("BytesToPages(0) = %d", BytesToPages(0))
	}
	if BytesToPages(1) != 1 {
		t.Errorf("BytesToPages(1) = %d", BytesToPages(1))
	}
	if BytesToPages(PageSize) != 1 {
		t.Errorf("BytesToPages(PageSize) = %d", BytesToPages(PageSize))
	}
	if BytesToPages(PageSize+1) != 2 {
		t.Errorf("BytesToPages(PageSize+1) = %d", BytesToPages(PageSize+1))
	}
}
