//go:build !linux

package core

// currentCPU, leaveCPU and yieldCPU (see cpuspread_linux.go) do nothing
// where there is no getcpu/sched_setaffinity pair to build them from.
func currentCPU() int { return -1 }

func leaveCPU(int) {}

func yieldCPU() {}
