// Package fabric is the fault-tolerant distributed campaign layer: a
// coordinator process shards a campaign's task list across N worker
// processes over HTTP, and merges the streamed outcomes into reports
// that are byte-identical to a single-process run — at any worker
// count, and under any worker kill schedule.
//
// Why this works at all: PR 2 made every task's randomness derive from
// (base seed, task ID) alone, PR 5 made task outcomes serializable,
// replayable journal records, and PR 8 pinned the run's causal
// identity. A task is therefore location-independent — running it on
// worker 3, worker 7, or the coordinator itself after every worker
// died produces the same record bytes — and the coordinator is free to
// reassign, duplicate ("work-steal"), or locally re-run tasks without
// ever perturbing the merged result.
//
// Wire protocol (schema branchscope.fabric/v1, DESIGN §3.20). The
// coordinator POSTs an Assignment to a worker's /fabric/run endpoint:
// the run identity basis (program, base seed, quick, result-shaping
// config), a slice of task IDs, and a lease duration. The worker
// refuses an assignment whose identity basis disagrees with its own
// flags (mirroring campaign.Resume's refusal of a foreign journal) and
// otherwise answers with a stream of CRC-framed JSONL lines — the
// campaign journal's exact framing reused as the wire format:
//
//	{"sum":"crc32:<8 hex>","task":{...campaign.TaskRecord...}}
//	{"sum":"crc32:<8 hex>","lease":{"task":"fig6"}}
//
// "task" frames are finished outcomes, byte-for-byte what a local
// campaign would journal; "lease" frames are heartbeats emitted while
// a task is still running. Both renew the assignment's lease — renewal
// is piggybacked on the outcome stream, there is no separate lease
// endpoint. A worker that crashes, hangs past its lease, or fails
// /readyz probes has its in-flight tasks reassigned; because seeds are
// task-derived, a task settled twice (a straggler stolen by an idle
// worker) settles with identical bytes and the coordinator keeps the
// first copy.
package fabric

import (
	"encoding/json"
	"fmt"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/durable"
)

// Schema versions the fabric wire protocol; bump on incompatible
// change. Workers refuse assignments with a different schema.
const Schema = "branchscope.fabric/v1"

// RunPath is the worker endpoint the coordinator POSTs assignments to,
// mounted under the worker's obs HTTP server.
const RunPath = "/fabric/run"

// Wire frame kinds carried by durable.Frame/ParseFrame on top of the
// journal's "task" records.
const (
	// KindTask frames one finished campaign.TaskRecord.
	KindTask = "task"
	// KindLease frames a Heartbeat while a task is still running.
	KindLease = "lease"
)

// Assignment is the coordinator's request body: run identity basis,
// tasks to run, and the lease the worker must keep renewing.
type Assignment struct {
	Schema string `json:"schema"`
	// RunID is the coordinator's causal run identity, informational on
	// the wire (the worker verifies the identity *basis* below — it
	// cannot recompute the ID without the full task list).
	RunID   string `json:"run_id,omitempty"`
	Program string `json:"program"`
	// BaseSeed/Quick/Config are the identity basis the worker checks
	// against its own flags: task seeds derive from BaseSeed, and
	// Config carries the result-shaping knobs (chaos plan, retry
	// budget, timeout, program-specific flags) exactly as they appear
	// in runstore.Identity.Config.
	BaseSeed uint64         `json:"base_seed"`
	Quick    bool           `json:"quick"`
	Config   map[string]any `json:"config"`
	// Tasks is the ordered slice of task IDs to run.
	Tasks []string `json:"tasks"`
	// LeaseMS is the lease duration in milliseconds: the longest the
	// worker may go without streaming a frame before the coordinator
	// abandons the assignment and reassigns its unsettled tasks.
	LeaseMS int64 `json:"lease_ms"`
}

// Lease returns the assignment's lease as a duration (0 when unset).
func (a Assignment) Lease() time.Duration {
	return time.Duration(a.LeaseMS) * time.Millisecond
}

// Heartbeat is the KindLease frame payload: which task the worker is
// still running.
type Heartbeat struct {
	Task string `json:"task"`
}

// configJSON canonicalizes an identity-config map for comparison: Go
// marshals maps with sorted keys, so two maps with equal plain-JSON
// content render identically.
func configJSON(cfg map[string]any) (string, error) {
	if cfg == nil {
		cfg = map[string]any{}
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("fabric: identity config not marshalable: %w", err)
	}
	return string(b), nil
}

// frameRecord renders one task-record wire line.
func frameRecord(rec campaign.TaskRecord) ([]byte, error) {
	return durable.Frame(KindTask, rec)
}
