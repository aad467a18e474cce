package rds

import (
	"context"
	"fmt"
	"time"

	"mbd/internal/elastic"
)

// ReconnectConfig tunes WithReconnect. Zero values take the defaults.
type ReconnectConfig struct {
	// BackoffBase is the first retry delay (default 50ms); each failed
	// attempt doubles it up to BackoffMax (default 5s), jittered down
	// to half (elastic.Backoff) so a fleet of delegators does not
	// redial in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts caps consecutive failed attempts within one outage
	// before the client gives up and terminates (pending requests fail
	// with the wrapped ErrDisconnected). 0 retries forever.
	MaxAttempts int
}

// probeTimeout bounds the half-open subscription-replay probe on a
// freshly dialed connection.
const probeTimeout = 10 * time.Second

// WithReconnect makes the client survive connection loss: a background
// loop redials (via the Dial address or WithDialer) with jittered
// exponential backoff, replays the active subscription over each fresh
// connection before admitting normal traffic (circuit half-open), and
// keeps the Events channel open across outages. While disconnected,
// requests fail fast with an error wrapping ErrDisconnected, except the
// ones the op table marks idempotent (see ErrDisconnected), which wait
// and retry.
func WithReconnect(cfg ReconnectConfig) ClientOption {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = cfg.BackoffBase
	}
	return func(c *Client) { c.rc = &cfg }
}

// reconnectLoop runs for one outage episode: it redials with backoff
// until a connection passes its half-open probe, then exits (the next
// loss spawns a fresh loop). Exactly one loop runs at a time, guarded
// by c.reconning.
func (c *Client) reconnectLoop() {
	cfg := c.rc
	for attempt := 1; ; attempt++ {
		if cfg.MaxAttempts > 0 && attempt > cfg.MaxAttempts {
			c.terminate(errGaveUp(cfg.MaxAttempts))
			return
		}
		select {
		case <-time.After(elastic.Backoff(cfg.BackoffBase, cfg.BackoffMax, attempt)):
		case <-c.closeCh:
			return
		}
		conn, err := c.dial()
		if err != nil {
			continue
		}
		// Install the connection half-open: its read loop runs (the
		// probe needs replies) but c.ready stays false, so ordinary
		// requests keep failing fast until the probe passes.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		c.connGen++
		gen := c.connGen
		c.connected = true
		c.mu.Unlock()
		go c.readLoop(conn, gen)
		if !c.probe() {
			conn.Close() // its connLost keeps this episode's state
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if gen != c.connGen || !c.connected {
			c.mu.Unlock() // died right after the probe; try again
			continue
		}
		c.ready = true
		c.reconning = false
		if c.connCh != nil {
			close(c.connCh)
			c.connCh = nil
		}
		c.mu.Unlock()
		return
	}
}

// probe qualifies a half-open connection: if the client holds a
// subscription it is replayed (the server re-attaches the event pump);
// with nothing to replay the successful dial itself is the probe.
func (c *Client) probe() bool {
	c.mu.Lock()
	filter := c.subFilter
	c.mu.Unlock()
	if filter == nil {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	_, err := c.do(ctx, &Message{Op: OpSubscribe, Name: *filter}, true)
	return err == nil
}

// errGaveUp wraps ErrDisconnected so callers can match the terminal
// give-up with errors.Is(err, ErrDisconnected).
func errGaveUp(attempts int) error {
	return fmt.Errorf("%w: gave up after %d reconnect attempts", ErrDisconnected, attempts)
}
