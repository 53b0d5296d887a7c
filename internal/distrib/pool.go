package distrib

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Worker pools. Two shapes share the Pool interface: subprocesses over stdio
// (ProcPool, the `mrsch-exp -workers N` path) and remote workers dialing in
// over TCP (ListenPool, the `-listen`/`-connect` path); the fault-injection
// tests bring a third, in-process goroutines over pipes.

// ProcPool launches worker subprocesses speaking the protocol over their
// stdin/stdout. The workers inherit the coordinator's filesystem, so the
// model store needs no copying.
type ProcPool struct {
	// Binary is the worker executable; empty means this process's own
	// binary (os.Executable), the `mrsch-exp -workers N` arrangement.
	Binary string
	// Args are the worker-mode arguments, e.g. ["-worker"].
	Args []string
	// N is the number of workers to launch.
	N int
	// Stderr receives the workers' log output (default os.Stderr).
	Stderr io.Writer
}

func (p *ProcPool) Size() int { return p.N }

func (p *ProcPool) Start(id int) (io.ReadWriteCloser, error) {
	bin := p.Binary
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("distrib: locating worker binary: %w", err)
		}
		bin = exe
	}
	cmd := exec.Command(bin, p.Args...)
	if p.Stderr != nil {
		cmd.Stderr = p.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("distrib: worker %d stdin: %w", id, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("distrib: worker %d stdout: %w", id, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distrib: starting worker %d: %w", id, err)
	}
	return &procConn{r: stdout, w: stdin, cmd: cmd}, nil
}

// procConn is a worker subprocess as a ReadWriteCloser. Close severs the
// pipes immediately and reaps the process in the background, killing it if
// it lingers — the coordinator's event loop must never block on a corpse.
type procConn struct {
	r    io.ReadCloser
	w    io.WriteCloser
	cmd  *exec.Cmd
	once sync.Once
}

func (c *procConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *procConn) Write(p []byte) (int, error) { return c.w.Write(p) }

func (c *procConn) Close() error {
	c.once.Do(func() {
		c.w.Close()
		c.r.Close()
		kill := time.AfterFunc(3*time.Second, func() {
			if c.cmd.Process != nil {
				c.cmd.Process.Kill()
			}
		})
		go func() {
			c.cmd.Wait()
			kill.Stop()
		}()
	})
	return nil
}

// ListenPool accepts workers that dial in over TCP (`mrsch-exp -worker
// -connect host:port` against a coordinator running `-listen addr`).
// Start blocks until the next worker connects. TCP workers must see the
// model store directory at the same path as the coordinator (shared
// filesystem); rule 7's exactly-once training depends on it.
type ListenPool struct {
	ln net.Listener
	n  int
}

// NewListenPool listens on addr for n workers.
func NewListenPool(addr string, n int) (*ListenPool, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distrib: listen %s: %w", addr, err)
	}
	return &ListenPool{ln: ln, n: n}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (p *ListenPool) Addr() string { return p.ln.Addr().String() }

func (p *ListenPool) Size() int { return p.n }

func (p *ListenPool) Start(id int) (io.ReadWriteCloser, error) {
	conn, err := p.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("distrib: accepting worker %d: %w", id, err)
	}
	return conn, nil
}

// Close stops accepting new workers.
func (p *ListenPool) Close() error { return p.ln.Close() }
