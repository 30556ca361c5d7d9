package core

import (
	"runtime"
	"syscall"
	"testing"
	"unsafe"
)

func affinity(t *testing.T) (mask [16]uint64) {
	t.Helper()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		t.Skipf("sched_getaffinity: %v", errno)
	}
	return mask
}

// TestLeaveCPU: a thread that finds itself on the named CPU ends up on
// another one with the affinity mask it started with, and a thread that
// is elsewhere, or has nowhere else to go, is left alone.
func TestLeaveCPU(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	here := currentCPU()
	if here < 0 {
		t.Skip("getcpu is not known on this architecture")
	}
	before := affinity(t)
	allowed := 0
	for _, w := range before {
		for ; w != 0; w &= w - 1 {
			allowed++
		}
	}

	leaveCPU(here + 1) // not where we are
	if got := currentCPU(); got != here {
		t.Errorf("leaveCPU(%d) moved the thread from CPU %d to %d", here+1, here, got)
	}
	leaveCPU(-1)
	leaveCPU(1 << 20)

	leaveCPU(here)
	switch got := currentCPU(); {
	case allowed < 2 && got != here:
		t.Errorf("thread moved from CPU %d to %d though its mask allows no other", here, got)
	case allowed >= 2 && got == here:
		t.Errorf("thread still on CPU %d, mask allows %d CPUs", here, allowed)
	}
	if after := affinity(t); after != before {
		t.Errorf("affinity mask changed: %x -> %x", before, after)
	}
}
