package wrapper

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/exec/colbatch"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
)

// requestEnvelopeBytes is the wire overhead of shipping an execution
// descriptor (framing, auth, cursor state) on top of the SQL text. The
// SAME constant prices the request in Explain's static estimate and sizes
// it in the actual transfer, so calibration never absorbs a bookkeeping
// skew we introduced ourselves.
const requestEnvelopeBytes = 256

// StreamBatch is one result batch as observed arriving at the integrator.
type StreamBatch struct {
	// Rel holds the batch rows.
	Rel *sqltypes.Relation
	// Col is the same rows in columnar form when the remote executed
	// vectorized; nil otherwise. Integrators that can merge columnar batches
	// use it to skip the row round trip.
	Col *colbatch.Batch
	// ArriveTime is the virtual time since fragment start at which this
	// batch finished arriving — batch k overlaps its transfer with the
	// production of batch k+1, so arrivals advance by
	// max(produce, transfer) rather than their sum.
	ArriveTime simclock.Time
}

// StreamOutcome summarizes a drained stream.
type StreamOutcome struct {
	// Result is the remote result (all rows + full server-side service time).
	Result *remote.Result
	// ResponseTime is the end-to-end fragment time: request transfer + first
	// batch production + the pipelined tail.
	ResponseTime simclock.Time
	// FirstRowTime is when the first batch finished arriving — the paper's
	// first-tuple cost made observable end to end. Zero for a monolithic
	// stream, whose one batch is the whole result: there is no first-row
	// observation apart from ResponseTime.
	FirstRowTime simclock.Time
	// WireBytes is the total encoded bytes the result link carried when the
	// columnar wire protocol was active; 0 on the row protocol.
	WireBytes int
}

// ResultStream is an open fragment result being shipped batch by batch.
type ResultStream interface {
	// Schema returns the result schema.
	Schema() *sqltypes.Schema
	// Next returns the next arriving batch, or nil when the stream is
	// exhausted. The exhausting call finalizes timing.
	Next(ctx context.Context) (*StreamBatch, error)
	// Outcome returns the stream summary; valid once Next returned nil.
	Outcome() *StreamOutcome
}

// netStream replays a remote cursor over the network on virtual time,
// implementing the pipeline recurrence: batch k+1 is produced while batch k
// is in flight, so each arrival advances by the slower of the two.
type netStream struct {
	server    *remote.Server
	topo      *network.Topology
	cur       *remote.Cursor
	wsp       *telemetry.Span
	batchRows int

	produced simclock.Time // request + cumulative production time
	linkFree simclock.Time // when the wire finishes serializing the previous batch
	arrive   simclock.Time // arrival time of the latest batch
	emitted  simclock.Time // span-cursor position (sum of emitted sub-spans)
	firstRow simclock.Time
	seen     int
	done     bool
	outcome  *StreamOutcome

	// Columnar-wire accounting: encoded vs row-model bytes actually shipped,
	// and the first batch's per-column encoding labels for the span.
	wireBytes int
	rawBytes  int
	colEnc    []string
}

// openStream ships the execution descriptor and opens the remote cursor.
// batchRows <= 0 is monolithic, store-and-forward execution: one batch, so
// the wrapper-layer span wraps a network.send, a remote.exec and a
// network.recv whose durations sum exactly to the response time — request
// transfer + remote service + result transfer.
func openStream(ctx context.Context, server *remote.Server, topo *network.Topology, plan *remote.Plan, batchRows int) (*netStream, error) {
	wsp := telemetry.SpanFrom(ctx).Child("wrapper.execute", telemetry.LayerWrapper, server.ID())
	if wsp != nil {
		ctx = telemetry.ContextWithSpan(ctx, wsp)
	}
	reqTime, err := topo.Transfer(ctx, server.ID(), len(plan.SQL)+requestEnvelopeBytes)
	if err != nil {
		wsp.SetAttr("error", err.Error())
		return nil, err
	}
	wsp.Emit("network.send", telemetry.LayerNetwork, server.ID(), reqTime)
	cur, err := server.OpenPlan(ctx, plan, batchRows)
	if err != nil {
		wsp.SetAttr("error", err.Error())
		return nil, err
	}
	// remote.exec covers production of the FIRST batch; later batches
	// produce concurrently with transfers and show up inside the recv spans.
	rsp := wsp.Emit("remote.exec", telemetry.LayerRemote, server.ID(), cur.FirstReady())
	rsp.SetAttr("plan", plan.Signature)
	if batchRows > 0 {
		if b := cur.Blocking(); b != "" {
			rsp.SetAttr("blocking", b)
		}
	}
	pos := reqTime + cur.FirstReady()
	return &netStream{
		server:    server,
		topo:      topo,
		cur:       cur,
		wsp:       wsp,
		batchRows: batchRows,
		produced:  pos,
		linkFree:  pos,
		arrive:    pos,
		emitted:   pos,
	}, nil
}

// Schema implements ResultStream.
func (s *netStream) Schema() *sqltypes.Schema { return s.cur.Result().Schema() }

// Next implements ResultStream.
func (s *netStream) Next(ctx context.Context) (*StreamBatch, error) {
	if s.done {
		return nil, nil
	}
	b := s.cur.NextBatch()
	if b != nil && b.Enc != nil {
		s.wireBytes += b.Enc.WireBytes()
		if s.wsp != nil { // only the span reports the row-model bytes
			s.rawBytes += b.Col.WireSize()
		}
		if s.colEnc == nil {
			s.colEnc = b.Enc.ColEnc
		}
	}
	if b == nil {
		s.done = true
		s.outcome = &StreamOutcome{
			Result:       s.cur.Result(),
			ResponseTime: s.arrive,
			FirstRowTime: s.firstRow,
			WireBytes:    s.wireBytes,
		}
		if s.wireBytes > 0 {
			s.wsp.SetAttr("wire", "columnar")
			s.wsp.SetAttr("wire_bytes", strconv.Itoa(s.wireBytes))
			s.wsp.SetAttr("wire_raw_bytes", strconv.Itoa(s.rawBytes))
			s.wsp.SetAttr("wire_enc", strings.Join(s.colEnc, ","))
		}
		s.wsp.End(s.outcome.ResponseTime)
		return nil, nil
	}
	if s.batchRows > 0 {
		lat, ser, err := s.topo.TransferBatch(ctx, s.server.ID(), batchWireBytes(b))
		if err != nil {
			s.done = true
			s.wsp.SetAttr("error", err.Error())
			return nil, err
		}
		if s.seen > 0 {
			// Production of this batch overlapped the previous transfer.
			s.produced += b.ServiceTime
		}
		// Pipeline recurrence: the wire serializes batches back to back
		// (serialization is serial per link), while each batch's propagation
		// latency overlaps the next batch's send.
		start := s.produced
		if s.linkFree > start {
			start = s.linkFree
		}
		s.linkFree = start + ser
		if a := s.linkFree + lat; a > s.arrive {
			s.arrive = a
		}
	} else {
		xfer, err := s.topo.Transfer(ctx, s.server.ID(), batchWireBytes(b))
		if err != nil {
			s.done = true
			s.wsp.SetAttr("error", err.Error())
			return nil, err
		}
		s.arrive += xfer
	}
	if s.seen == 0 && s.batchRows > 0 {
		s.firstRow = s.arrive
	}
	s.seen++
	// The recv span absorbs transfer time plus any stall waiting for the
	// batch to be produced, so the sub-span durations telescope exactly to
	// the fragment response time.
	s.wsp.Emit("network.recv", telemetry.LayerNetwork, s.server.ID(), s.arrive-s.emitted)
	s.emitted = s.arrive
	return &StreamBatch{Rel: b.Rel, Col: b.Col, ArriveTime: s.arrive}, nil
}

// batchWireBytes sizes a batch for the network model. Under the columnar
// wire protocol the encoded length is authoritative. Otherwise the columnar
// WireSize is computed from per-column sums (O(1) for fixed-width null-free
// columns) but equals Relation.ByteSize exactly, so every Transfer draw —
// and with it the whole virtual-time schedule — is identical on both
// engines.
func batchWireBytes(b *remote.Batch) int {
	if b.Enc != nil {
		return b.Enc.WireBytes()
	}
	if b.Col != nil {
		return b.Col.WireSize()
	}
	return b.Rel.ByteSize()
}

// Outcome implements ResultStream.
func (s *netStream) Outcome() *StreamOutcome { return s.outcome }

// Drain reads a stream to exhaustion, dropping the batch views, and returns
// its outcome: the fragment's timing and the complete remote result.
func Drain(ctx context.Context, st ResultStream) (*StreamOutcome, error) {
	for {
		b, err := st.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return st.Outcome(), nil
		}
	}
}
