package serve

import (
	"fmt"
	"io"
	"net"
	"sync"
)

// RequestError is a request-level failure: the daemon rejected one request
// (invalid cluster state, draining, failed swap) but the connection — and
// every other request on it — is unaffected.
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

// Client is a synchronous connection to a decision daemon. A Client
// serializes its own requests (one in flight at a time); open several
// clients for concurrency — the daemon's admission batching coalesces
// them.
type Client struct {
	mu     sync.Mutex
	rwc    io.ReadWriteCloser
	nextID uint64
	fw     frameWriter // both keep their buffers from one request to the next, under mu
	fr     frameReader

	welcome message
}

// Dial connects to a daemon at addr and performs the handshake.
func Dial(addr string) (*Client, error) {
	rwc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	c, err := NewClient(rwc)
	if err != nil {
		rwc.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the client side of the handshake over an established
// connection. It rejects a daemon speaking another protocol revision,
// naming the peer's version.
func NewClient(rwc io.ReadWriteCloser) (*Client, error) {
	c := &Client{rwc: rwc, fw: frameWriter{w: rwc}, fr: newFrameReader(rwc)}
	if err := c.fw.write(&message{Type: msgHello, Proto: ProtocolVersion}); err != nil {
		return nil, fmt.Errorf("serve: sending hello: %w", err)
	}
	welcome := &c.welcome
	if err := c.read(welcome); err != nil {
		return nil, fmt.Errorf("serve: reading welcome: %w", err)
	}
	if welcome.Type != msgWelcome {
		return nil, fmt.Errorf("serve: handshake answered with %s, want welcome", welcome.Type)
	}
	if welcome.Err != "" {
		return nil, &RequestError{Msg: welcome.Err}
	}
	if welcome.Proto != ProtocolVersion {
		return nil, fmt.Errorf("serve: server speaks protocol %d, client %d", welcome.Proto, ProtocolVersion)
	}
	return c, nil
}

// read reads and decodes the next frame into m.
func (c *Client) read(m *message) error {
	payload, err := c.fr.next()
	if err != nil {
		return err
	}
	_, err = decodeMessage(payload, m, nil)
	return err
}

// ModelVersion reports the daemon's model version at handshake time.
func (c *Client) ModelVersion() uint64 { return c.welcome.ModelVersion }

// Window reports the served model's window size W: decisions index into
// the first W jobs of the request queue.
func (c *Client) Window() int { return c.welcome.Window }

// System reports the served cluster geometry (resource names and unit
// capacities) so a caller can validate its state model before asking.
func (c *Client) System() (resources []string, capacities []int) {
	return c.welcome.Resources, c.welcome.Capacities
}

// Decide asks the daemon for one scheduling decision, returning the window
// index to schedule and the model version that decided it. A *RequestError
// leaves the connection usable; any other error means the connection is
// dead.
func (c *Client) Decide(req *Request) (pick int, version uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	if err := c.fw.write(&message{Type: msgDecide, ID: id, Req: *req}); err != nil {
		return -1, 0, fmt.Errorf("serve: sending request: %w", err)
	}
	var m message
	if err := c.read(&m); err != nil {
		return -1, 0, fmt.Errorf("serve: reading decision: %w", err)
	}
	if m.Type != msgDecision || m.ID != id {
		return -1, 0, fmt.Errorf("serve: request %d answered with %s frame (id %d)", id, m.Type, m.ID)
	}
	if m.Err != "" {
		return -1, 0, &RequestError{Msg: m.Err}
	}
	return m.Pick, m.ModelVersion, nil
}

// Swap sends new model weights (nn.SaveWeights bytes) over the admin
// frame and returns the daemon's new model version. A *RequestError means
// the daemon refused the weights and kept serving the previous version.
func (c *Client) Swap(weights []byte) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	if err := c.fw.write(&message{Type: msgSwap, ID: id, Weights: weights}); err != nil {
		return 0, fmt.Errorf("serve: sending swap: %w", err)
	}
	var m message
	if err := c.read(&m); err != nil {
		return 0, fmt.Errorf("serve: reading swap ack: %w", err)
	}
	if m.Type != msgSwapped || m.ID != id {
		return 0, fmt.Errorf("serve: swap %d answered with %s frame (id %d)", id, m.Type, m.ID)
	}
	if m.Err != "" {
		return m.ModelVersion, &RequestError{Msg: m.Err}
	}
	return m.ModelVersion, nil
}

// Close hangs up.
func (c *Client) Close() error { return c.rwc.Close() }
