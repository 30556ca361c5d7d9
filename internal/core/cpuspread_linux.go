package core

import (
	"runtime"
	"syscall"
	"unsafe"
)

// getcpuTrap is getcpu(2)'s number on the architectures this file knows
// (package syscall does not name it); zero turns currentCPU and
// leaveCPU off.
var getcpuTrap = map[string]uintptr{"amd64": 309, "arm64": 168, "riscv64": 168, "loong64": 168}[runtime.GOARCH]

// currentCPU returns the CPU the calling thread runs on, or -1 when it
// cannot tell.
func currentCPU() int {
	if getcpuTrap == 0 {
		return -1
	}
	var cpu uint32
	if _, _, errno := syscall.RawSyscall(getcpuTrap, uintptr(unsafe.Pointer(&cpu)), 0, 0); errno != 0 {
		return -1
	}
	return int(cpu)
}

// leaveCPU moves the calling thread off cpu when it finds itself there
// and the thread's affinity mask allows another CPU: it narrows the
// mask to every allowed CPU but cpu — the kernel migrates a running
// thread at once — and puts the mask back, which leaves the thread
// where it landed.  A fan-out's helper calls it with the CPU of the
// goroutine that started it.  A kernel normally does this itself, by
// waking a thread on an idle CPU.  The 2-vCPU guest the benchmark runs
// on does not: unless the other vCPU ran something in the last few
// hundred microseconds, a woken thread is queued on its waker's CPU or
// the one it last ran on, and two runnable threads on one vCPU are not
// balanced apart for about a second.  A process whose threads were all
// born on one vCPU therefore time-slices every fan-out on it — a
// range_loose query at 24 ms instead of 15 — for as long as it lives.
// cpu < 0 is a no-op, and so is every failure.
func leaveCPU(cpu int) {
	var allowed [16]uint64 // 1024 CPUs; a larger machine fails the call and is left alone
	if cpu < 0 || cpu >= 64*len(allowed) {
		return
	}
	runtime.LockOSThread() // the three calls below must hit one thread
	defer runtime.UnlockOSThread()
	if currentCPU() != cpu {
		return
	}
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
	if errno != 0 {
		return
	}
	others := allowed
	others[cpu/64] &^= 1 << (cpu % 64)
	if others == [16]uint64{} {
		return
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, n, uintptr(unsafe.Pointer(&others))); errno != 0 {
		return
	}
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, n, uintptr(unsafe.Pointer(&allowed)))
}

// yieldCPU gives the calling thread's CPU to a thread queued on it, if
// any (sched_yield(2)), and returns at once when none is.  A fan-out's
// caller calls it after starting its helpers: the same guest queues a
// woken helper on the caller's own CPU about half the time, where it
// waited for the caller's timeslice to end — a median 2.6 ms in ssserve
// under range_loose traffic, against a 3 ms probe, so the helper ran
// next to nothing — and now runs at once, leaves (leaveCPU), and the
// caller continues.
func yieldCPU() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
