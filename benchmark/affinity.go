package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a CPU affinity mask for the first 64 processors.
type cpuSet uint64

func cpuRange(from, to int) cpuSet {
	var s cpuSet
	for c := from; c < to && c < 64; c++ {
		s |= 1 << c
	}
	return s
}

// setAffinity restricts thread tid (0 = the calling thread) to set.
// Threads and processes it creates afterwards inherit the restriction.
func setAffinity(tid int, set cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %#x): %w", tid, uint64(set), errno)
	}
	return nil
}

// confineSelf restricts every thread this process has to set.
func confineSelf(set cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing is not an error.
		if err := setAffinity(tid, set); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// withAffinity runs fn on a thread restricted to set, then lifts the
// restriction from that thread again. What fn starts keeps it.
func withAffinity(set, restore cpuSet, fn func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, set); err != nil {
		return err
	}
	defer setAffinity(0, restore)
	return fn()
}
