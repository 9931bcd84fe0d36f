package wrapper

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// requestEnvelopeBytes is the wire overhead of shipping an execution
// descriptor (framing, auth, cursor state) on top of the SQL text. The
// SAME constant prices the request in Explain's static estimate and sizes
// it in the actual transfer, so calibration never absorbs a bookkeeping
// skew we introduced ourselves.
const requestEnvelopeBytes = 256

// StreamOutcome summarizes a shipped fragment.
type StreamOutcome struct {
	// Result is the remote result (all rows + full server-side service time).
	Result *remote.Result
	// ResponseTime is the end-to-end fragment time: request transfer + first
	// batch production + the pipelined tail.
	ResponseTime simclock.Time
	// FirstRowTime is when the first batch finished arriving — the paper's
	// first-tuple cost made observable end to end. Zero for a monolithic
	// shipment, whose one batch is the whole result: there is no first-row
	// observation apart from ResponseTime.
	FirstRowTime simclock.Time
	// WireBytes is the total encoded bytes the result link carried.
	WireBytes int
}

// Ship implements Wrapper. It replays the remote cursor over the network on
// virtual time under the pipeline recurrence: batch k+1 is produced while
// batch k is in flight, so each arrival advances by the slower of the two.
// batchRows <= 0 is monolithic, store-and-forward execution: one batch, so
// the wrapper-layer span wraps a network.send, a remote.exec and a
// network.recv whose durations sum exactly to the response time — request
// transfer + remote service + result transfer.
func (w *Relational) Ship(ctx context.Context, plan *remote.Plan, batchRows int, emit func(b *remote.Batch, arrive simclock.Time)) (*StreamOutcome, error) {
	id := w.server.ID()
	wsp := telemetry.SpanFrom(ctx).Child("wrapper.execute", telemetry.LayerWrapper, id)
	if wsp != nil {
		ctx = telemetry.ContextWithSpan(ctx, wsp)
	}
	reqTime, err := w.topo.Transfer(ctx, id, len(plan.SQL)+requestEnvelopeBytes)
	if err != nil {
		wsp.SetAttr("error", err.Error())
		return nil, err
	}
	wsp.Emit("network.send", telemetry.LayerNetwork, id, reqTime)
	cur, err := w.server.OpenPlan(ctx, plan, batchRows)
	if err != nil {
		wsp.SetAttr("error", err.Error())
		return nil, err
	}
	// remote.exec covers production of the FIRST batch; later batches
	// produce concurrently with transfers and show up inside the recv spans.
	rsp := wsp.Emit("remote.exec", telemetry.LayerRemote, id, cur.FirstReady())
	rsp.SetAttr("plan", plan.Signature)
	if batchRows > 0 {
		if b := cur.Blocking(); b != "" {
			rsp.SetAttr("blocking", b)
		}
	}

	out := &StreamOutcome{Result: cur.Result()}
	produced := reqTime + cur.FirstReady() // request + cumulative production time
	linkFree := produced                   // when the wire finishes serializing the previous batch
	arrive := produced                     // arrival time of the latest batch
	emitted := produced                    // span-cursor position (sum of emitted sub-spans)
	// Wire accounting for the span: the row-model size of the rows shipped
	// and the first batch's per-column encoding labels.
	var rawBytes int
	var colEnc []string
	for n := 0; ; n++ {
		b := cur.NextBatch()
		if b == nil {
			break
		}
		size := b.Enc.WireBytes()
		out.WireBytes += size
		if wsp != nil { // only the span reports the row-model bytes
			rawBytes += b.Col.WireSize()
		}
		if colEnc == nil {
			colEnc = b.Enc.ColEnc
		}
		if batchRows > 0 {
			lat, ser, err := w.topo.TransferBatch(ctx, id, size)
			if err != nil {
				wsp.SetAttr("error", err.Error())
				return nil, err
			}
			if n > 0 {
				// Production of this batch overlapped the previous transfer.
				produced += b.ServiceTime
			}
			// Pipeline recurrence: the wire serializes batches back to back
			// (serialization is serial per link), while each batch's
			// propagation latency overlaps the next batch's send.
			start := max(produced, linkFree)
			linkFree = start + ser
			arrive = max(arrive, linkFree+lat)
			if n == 0 {
				out.FirstRowTime = arrive
			}
		} else {
			xfer, err := w.topo.Transfer(ctx, id, size)
			if err != nil {
				wsp.SetAttr("error", err.Error())
				return nil, err
			}
			arrive += xfer
		}
		// The recv span absorbs transfer time plus any stall waiting for the
		// batch to be produced, so the sub-span durations telescope exactly to
		// the fragment response time.
		wsp.Emit("network.recv", telemetry.LayerNetwork, id, arrive-emitted)
		emitted = arrive
		emit(b, arrive)
	}
	out.ResponseTime = arrive
	wsp.SetAttr("wire", "columnar")
	wsp.SetAttr("wire_bytes", strconv.Itoa(out.WireBytes))
	wsp.SetAttr("wire_raw_bytes", strconv.Itoa(rawBytes))
	wsp.SetAttr("wire_enc", strings.Join(colEnc, ","))
	wsp.End(arrive)
	return out, nil
}

// Shipment is a fragment shipped to the end: its outcome and its batches in
// arrival order.
type Shipment struct {
	*StreamOutcome
	Batches []*remote.Batch
	read    int
}

// Next returns the shipment's batches one at a time, nil after the last
// (bench/layers.go reads a fragment this way).
func (s *Shipment) Next(context.Context) (*remote.Batch, error) {
	if s.read == len(s.Batches) {
		return nil, nil
	}
	s.read++
	return s.Batches[s.read-1], nil
}
