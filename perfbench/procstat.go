package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// procSample is one process's cumulative OS counters.
type procSample struct {
	cpuNS    int64 // user + system CPU
	volCtx   int64 // voluntary context switches (this process only)
	syscalls int64 // read-family plus write-family system calls
	ioBytes  int64 // bytes passed to those calls: socket traffic, for this benchmark
	rssBytes int64
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpuNS:    a.cpuNS - b.cpuNS,
		volCtx:   a.volCtx - b.volCtx,
		syscalls: a.syscalls - b.syscalls,
		ioBytes:  a.ioBytes - b.ioBytes,
		rssBytes: a.rssBytes,
	}
}

// selfSample reads this process's counters: CPU and context switches from
// getrusage (all threads, microsecond resolution), system calls and bytes
// from /proc/self/io.
func selfSample() (procSample, error) {
	ru := rusage()
	s := procSample{cpuNS: ru.Utime.Nano() + ru.Stime.Nano(), volCtx: ru.Nvcsw}
	return s, readIO("/proc/self/io", &s)
}

// cpuNow is this process's user plus system CPU time.
func cpuNow() int64 {
	ru := rusage()
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // fails only on a bad argument
	}
	return ru
}

// pidSample reads a child process's counters from /proc/<pid>: CPU from
// stat (clock ticks), system calls and bytes from io, RSS from status.
func pidSample(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("%s/stat: %d fields", dir, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("%s/stat: bad utime/stime %q %q", dir, f[11], f[12])
	}
	s.cpuNS = (ut + st) * 1e9 / clockTicks
	if err := readIO(dir+"/io", &s); err != nil {
		return s, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	if kb, ok := statusField(status, "VmRSS:"); ok {
		s.rssBytes = kb * 1024
	}
	return s, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux architecture Go supports.
const clockTicks = 100

func readIO(path string, s *procSample) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, k := range []string{"syscr:", "syscw:"} {
		v, ok := statusField(b, k)
		if !ok {
			return fmt.Errorf("%s: no %s", path, k)
		}
		s.syscalls += v
	}
	for _, k := range []string{"rchar:", "wchar:"} {
		v, ok := statusField(b, k)
		if !ok {
			return fmt.Errorf("%s: no %s", path, k)
		}
		s.ioBytes += v
	}
	return nil
}

// statusField parses the first integer after key in a "key: value" file.
func statusField(b []byte, key string) (int64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// childPIDs returns the pids of this process's children running the named
// command: the shermand processes the cluster launched.
func childPIDs(comm string) ([]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := os.Getpid()
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue // exited since the directory was read
		}
		open, close := bytes.IndexByte(stat, '('), bytes.LastIndexByte(stat, ')')
		if open < 0 || close < open {
			continue
		}
		f := strings.Fields(string(stat[close+1:]))
		if len(f) < 2 || string(stat[open+1:close]) != comm {
			continue
		}
		if ppid, err := strconv.Atoi(f[1]); err == nil && ppid == self {
			pids = append(pids, pid)
		}
	}
	return pids, nil
}

// serverSample sums the counters of the given shermand processes.
func serverSample(pids []int) (procSample, error) {
	var sum procSample
	for _, pid := range pids {
		s, err := pidSample(pid)
		if err != nil {
			return sum, fmt.Errorf("reading shermand %d: %w", pid, err)
		}
		sum.cpuNS += s.cpuNS
		sum.syscalls += s.syscalls
		sum.ioBytes += s.ioBytes
		sum.rssBytes += s.rssBytes
	}
	return sum, nil
}
