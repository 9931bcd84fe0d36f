// Package network simulates the wide-area network between the information
// integrator and the remote data sources. Each link has a base one-way
// latency, a bandwidth, and a dynamic congestion level that experiments (and
// fault injection) can vary at runtime — the "dynamic nature of network
// latency" that the paper's cost model cannot see but QCC learns through
// calibration.
package network

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Link models one direction-agnostic network path.
type Link struct {
	mu sync.Mutex
	// LatencyMS is the base one-way latency in simulated milliseconds.
	latencyMS float64
	// bandwidthKBps is the transfer rate in KB per simulated millisecond⁻¹
	// terms (bytes per ms).
	bytesPerMS float64
	// congestion multiplies latency and divides bandwidth; 1 = calm.
	congestion float64
	down       bool
}

// LinkConfig configures a link.
type LinkConfig struct {
	// LatencyMS is the base one-way latency in milliseconds.
	LatencyMS float64
	// BandwidthKBps is the throughput in kilobytes per second.
	BandwidthKBps float64
}

// NewLink builds a link. Zero bandwidth means effectively infinite.
func NewLink(cfg LinkConfig) *Link {
	bpm := 0.0
	if cfg.BandwidthKBps > 0 {
		bpm = cfg.BandwidthKBps * 1024 / 1000 // bytes per millisecond
	}
	return &Link{
		latencyMS:  cfg.LatencyMS,
		bytesPerMS: bpm,
		congestion: 1,
	}
}

// SetCongestion sets the congestion multiplier (>= 1 slows the link; values
// below 1 are clamped to 1).
func (l *Link) SetCongestion(c float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c < 1 {
		c = 1
	}
	l.congestion = c
}

// Congestion returns the current multiplier.
func (l *Link) Congestion() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.congestion
}

// SetDown marks the link as partitioned (transfers fail).
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = down
}

// Down reports whether the link is partitioned.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// ErrPartitioned is returned when a transfer is attempted over a down link.
type ErrPartitioned struct{ Dest string }

// Error implements error.
func (e *ErrPartitioned) Error() string {
	return fmt.Sprintf("network: link to %s is partitioned", e.Dest)
}

// transferParts computes one transfer split into propagation latency (with
// congestion) and serialization delay. Callers hold l.mu.
func (l *Link) transferParts(payloadBytes int) (lat, ser float64) {
	lat = l.latencyMS * l.congestion
	if l.bytesPerMS > 0 {
		ser = float64(payloadBytes) / (l.bytesPerMS / l.congestion)
	}
	return lat, ser
}

// TransferTime returns the simulated time to move payloadBytes one way over
// the link, including latency, serialization delay and congestion.
func (l *Link) TransferTime(payloadBytes int) simclock.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	lat, ser := l.transferParts(payloadBytes)
	t := lat + ser
	if t < 0 {
		t = 0
	}
	return simclock.Time(t)
}

// TransferParts is TransferTime with the two delay components exposed:
// propagation latency and serialization time. Streamed batches need the
// split because consecutive batches share the wire — serialization occupies
// the link serially while each batch's propagation overlaps the next batch's
// send.
func (l *Link) TransferParts(payloadBytes int) (lat, ser simclock.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	la, se := l.transferParts(payloadBytes)
	if la < 0 {
		la = 0
	}
	return simclock.Time(la), simclock.Time(se)
}

// BaseLatency returns the configured (uncongested) latency — what a DB2
// administrator would statically register for the source.
func (l *Link) BaseLatency() simclock.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return simclock.Time(l.latencyMS)
}

// StaticTransferTime is the transfer estimate a cost model would compute
// from the registered latency and bandwidth, blind to current congestion.
// The gap between this and TransferTime is part of what QCC's calibration
// factor absorbs.
func (l *Link) StaticTransferTime(payloadBytes int) simclock.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.latencyMS
	if l.bytesPerMS > 0 {
		t += float64(payloadBytes) / l.bytesPerMS
	}
	return simclock.Time(t)
}

// Topology maps destination names (remote server IDs) to links.
type Topology struct {
	mu    sync.RWMutex
	links map[string]*Link
	tel   *telemetry.Telemetry
}

// SetTelemetry installs the observability subsystem: every successful
// Transfer feeds the per-destination transfer-time histogram. Nil disables.
func (t *Topology) SetTelemetry(tel *telemetry.Telemetry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tel = tel
}

func (t *Topology) telemetry() *telemetry.Telemetry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tel
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{links: map[string]*Link{}}
}

// AddLink registers the link to dest, replacing any existing one.
func (t *Topology) AddLink(dest string, link *Link) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links[dest] = link
}

// Link returns the link to dest, or nil.
func (t *Topology) Link(dest string) *Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.links[dest]
}

// Transfer computes the one-way transfer time to dest, failing when the
// context is cancelled or the destination is unknown or partitioned.
func (t *Topology) Transfer(ctx context.Context, dest string, payloadBytes int) (simclock.Time, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	l := t.Link(dest)
	if l == nil {
		return 0, fmt.Errorf("network: no link to %q", dest)
	}
	if l.Down() {
		return 0, &ErrPartitioned{Dest: dest}
	}
	tt := l.TransferTime(payloadBytes)
	t.telemetry().Active().Histogram("network.transfer_ms", dest, nil).Observe(float64(tt))
	return tt, nil
}

// TransferBatch computes the one-way delay of one streamed result batch,
// split into propagation latency and serialization time: batches of one
// stream share the wire, so serialization is serial across batches while
// propagation overlaps the next batch's send. The total (lat+ser) matches a
// Transfer of the same payload. It additionally records the batch size on the
// network.batch_bytes histogram, so it is only used on the streaming path —
// monolithic transfers leave no batch series behind.
func (t *Topology) TransferBatch(ctx context.Context, dest string, payloadBytes int) (lat, ser simclock.Time, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	l := t.Link(dest)
	if l == nil {
		return 0, 0, fmt.Errorf("network: no link to %q", dest)
	}
	if l.Down() {
		return 0, 0, &ErrPartitioned{Dest: dest}
	}
	lat, ser = l.TransferParts(payloadBytes)
	t.telemetry().Active().Histogram("network.transfer_ms", dest, nil).Observe(float64(lat + ser))
	t.telemetry().Active().Histogram("network.batch_bytes", dest, batchBytesBuckets).Observe(float64(payloadBytes))
	return lat, ser, nil
}

// batchBytesBuckets sizes the batch-volume histogram: batches range from a
// few hundred bytes (tiny tail batches) to megabytes (blocking plans that
// ship in one piece).
var batchBytesBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}

// RoundTrip computes request+response transfer time to dest.
func (t *Topology) RoundTrip(ctx context.Context, dest string, reqBytes, respBytes int) (simclock.Time, error) {
	req, err := t.Transfer(ctx, dest, reqBytes)
	if err != nil {
		return 0, err
	}
	resp, err := t.Transfer(ctx, dest, respBytes)
	if err != nil {
		return 0, err
	}
	return req + resp, nil
}
