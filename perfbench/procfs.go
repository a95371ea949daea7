package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat. USER_HZ is 100
// on every Linux architecture the collector targets.
const clockTick = 10 * time.Millisecond

// procCPU is a process's user+system CPU time as /proc/<pid>/stat reports it.
type procCPU struct {
	User, System time.Duration
}

func (c procCPU) total() time.Duration { return c.User + c.System }

// parseProcStat extracts utime and stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) is parenthesised
// and may itself hold spaces or parentheses, so fields are counted from the
// last ')'.
func parseProcStat(data []byte) (procCPU, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return procCPU{}, fmt.Errorf("proc stat: no command field")
	}
	fields := strings.Fields(string(data[end+1:]))
	// fields[0] is field 3 (state), so field n is fields[n-3].
	if len(fields) < 13 {
		return procCPU{}, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat stime: %w", err)
	}
	return procCPU{
		User:   time.Duration(utime) * clockTick,
		System: time.Duration(stime) * clockTick,
	}, nil
}

func readProcCPU(pid int) (procCPU, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procCPU{}, err
	}
	return parseProcStat(data)
}

// procIO holds the /proc/<pid>/io counters the benchmark uses: write
// syscalls and bytes passed to write-family calls (files and sockets alike).
type procIO struct {
	SyscW uint64
	WChar uint64
}

// parseProcIO reads the "key: value" lines of /proc/<pid>/io.
func parseProcIO(data []byte) (procIO, error) {
	var io procIO
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io %s: %w", key, err)
		}
		switch key {
		case "syscw":
			io.SyscW = n
			seen++
		case "wchar":
			io.WChar = n
			seen++
		}
	}
	if seen != 2 {
		return procIO{}, fmt.Errorf("proc io: syscw or wchar missing")
	}
	return io, nil
}

func readProcIO(pid int) (procIO, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procIO{}, err
	}
	return parseProcIO(data)
}
