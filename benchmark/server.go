package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRepo returns the root of the repository checkout: the nearest
// directory at or above the working directory that holds the server
// command's source.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dnslb-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/dnslb-server not found at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/dnslb-server from the checkout into its
// build directory and returns the binary's path. Build time is not
// part of any metric.
func buildServer(repo string) (string, error) {
	bin := filepath.Join(repo, ".bench_build", "bin", "dnslb-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dnslb-server")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dnslb-server: %v\n%s", err, out)
	}
	return bin, nil
}

// ports are the loopback ports of one server instance. The report
// socket is the server's default: the port after the DNS port.
type ports struct {
	dns, http uint16
}

func (p ports) dnsAddr() netip.AddrPort  { return netip.AddrPortFrom(loopback, p.dns) }
func (p ports) httpAddr() netip.AddrPort { return netip.AddrPortFrom(loopback, p.http) }
func (p ports) reportAddr() string       { return netip.AddrPortFrom(loopback, p.dns+1).String() }

var loopback = netip.AddrFrom4([4]byte{127, 0, 0, 1})

// freePorts finds a DNS port free on UDP and TCP whose successor is
// free on TCP (the report socket), and a separate HTTP port.
func freePorts() (ports, error) {
	for try := 0; try < 32; try++ {
		u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return ports{}, err
		}
		p := u.LocalAddr().(*net.UDPAddr).Port
		t, errT := net.Listen("tcp4", fmt.Sprintf("127.0.0.1:%d", p))
		r, errR := net.Listen("tcp4", fmt.Sprintf("127.0.0.1:%d", p+1))
		h, errH := net.Listen("tcp4", "127.0.0.1:0")
		var hp int
		for _, l := range []net.Listener{t, r, h} {
			if l != nil {
				hp = l.Addr().(*net.TCPAddr).Port
				l.Close()
			}
		}
		u.Close()
		if errT == nil && errR == nil && errH == nil && p < 65535 {
			return ports{dns: uint16(p), http: uint16(hp)}, nil
		}
	}
	return ports{}, errors.New("no free loopback port pair found")
}

// server is one dnslb-server subprocess.
type server struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startServer launches the server in its default configuration plus
// the workload's extra flags, with GOMAXPROCS set through the
// environment and the process confined to cpus. Its log goes to the
// file logName in the build directory.
func startServer(bin, logName string, p ports, gomaxprocs int, cpus, all cpuSet, http bool, extra []string) (*server, error) {
	var addrs, caps []string
	for i, c := range capacities {
		addrs = append(addrs, netip.AddrFrom4(backendAddr(i)).String())
		caps = append(caps, strconv.FormatFloat(c, 'g', -1, 64))
	}
	args := []string{"-servers", strings.Join(addrs, ","), "-capacities", strings.Join(caps, ","), "-addr", p.dnsAddr().String()}
	if http {
		args = append(args, "-http-addr", p.httpAddr().String())
	}
	args = append(args, extra...)
	logf, err := os.Create(filepath.Join(filepath.Dir(filepath.Dir(bin)), logName))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child inherits the CPU set of the thread that forks it.
	if err := withAffinity(cpus, all, cmd.Start); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// exited reports whether the server process has ended by itself.
func (s *server) exited() bool {
	select {
	case err := <-s.done:
		s.done <- err
		return true
	default:
		return false
	}
}

// stop ends the server — SIGTERM, then SIGKILL if it does not drain in
// time — and returns once the process is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(6 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// logTail returns the end of the server's log, for error reports.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// procSample is what /proc says about the server process at one moment.
type procSample struct {
	user, sys   float64 // CPU seconds of all threads, from /proc/<pid>/stat (10 ms ticks)
	cpu         float64 // CPU seconds of the live threads, from their schedstat (ns); 0 if the kernel keeps none
	ctxSwitches uint64  // voluntary + involuntary, summed over the threads
	threads     int
	hwmMiB      float64 // VmHWM: peak resident set
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat,
// 100 on every Linux platform Go supports.
const clockTick = 100

func (s *server) sample() (procSample, error) {
	var ps procSample
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("unexpected /proc/%s/stat: %q", pid, stat)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	ps.user, ps.sys = float64(ut)/clockTick, float64(st)/clockTick

	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ps, err
	}
	ps.hwmMiB = float64(statusField(status, "VmHWM:")) / 1024
	ps.threads = int(statusField(status, "Threads:"))
	tasks, err := filepath.Glob("/proc/" + pid + "/task/*/status")
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ps.ctxSwitches += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
		if b, err := os.ReadFile(filepath.Join(filepath.Dir(t), "schedstat")); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				ns, _ := strconv.ParseUint(f[0], 10, 64)
				ps.cpu += float64(ns) / 1e9
			}
		}
	}
	return ps, nil
}

// statusField returns the leading integer of a "Key:\tvalue" line of a
// /proc status file, 0 when the key is absent.
func statusField(status []byte, key string) uint64 {
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				n, _ := strconv.ParseUint(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
