package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childArg as the first argument runs this executable in a child role.
const childArg = "child"

// childMain runs one child role; args are the role and its JSON arguments.
// The role's result is the last line of stdout.
func childMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench child: want <role> <json-args>")
		return 2
	}
	var err error
	switch args[0] {
	case "table1":
		var a table1Args
		if err = json.Unmarshal([]byte(args[1]), &a); err == nil {
			err = table1Child(a, os.Stdout)
		}
	case "replay":
		var a replayArgs
		if err = json.Unmarshal([]byte(args[1]), &a); err == nil {
			err = replayChild(a, os.Stdout)
		}
	default:
		err = fmt.Errorf("unknown role %q", args[0])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", args[0], err)
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func cpuTime(ps *os.ProcessState) time.Duration {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return 0
}

// peakRSSKB reads a live process's peak resident set (VmHWM) from
// /proc/<pid>/status; pid may be "self". The exit status's maxrss is no
// substitute: it also counts the benchmark's own memory, which the child
// shared until exec.
func peakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// child runs this executable in a fresh process in the given role,
// decodes the last line of its stdout into out and returns the process's
// CPU time.
func (b *bench) child(role string, args, out any) (time.Duration, error) {
	payload, err := json.Marshal(args)
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(b.ctx, b.self, childArg, role, string(payload))
	cmd.Stderr = b.log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	io.Copy(io.Discard, stdout) // unblock the child if scanning stopped early
	waitErr := cmd.Wait()
	cpu := cpuTime(cmd.ProcessState)
	switch {
	case waitErr != nil:
		return cpu, waitErr
	case scanErr != nil:
		return cpu, fmt.Errorf("read %s output: %w", role, scanErr)
	}
	if err := json.Unmarshal(last, out); err != nil {
		return cpu, fmt.Errorf("decode %s output: %w", role, err)
	}
	return cpu, nil
}
