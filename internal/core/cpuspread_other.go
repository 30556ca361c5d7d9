//go:build !linux

package core

// currentCPU and leaveCPU (see cpuspread_linux.go) do nothing where
// there is no getcpu/sched_setaffinity pair to build them from.
func currentCPU() int { return -1 }

func leaveCPU(int) {}
