package qcc

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/journal"
)

// The placement advisor implements the paper's closing future-work item:
// "incorporation of data placement strategies in conjunction with QCC into
// the proposed architecture". It mines the explain table — the record of
// which fragments ran where at what calibrated cost — together with QCC's
// calibration factors, and recommends replicating the hottest nicknames
// from persistently-slow (loaded) servers onto cooler ones, so the
// optimizer gains an equivalent data source to route to.

// PlacementRecommendation is one advised replication.
type PlacementRecommendation struct {
	// Nickname to replicate.
	Nickname string
	// From is the currently-hosting hot server.
	From string
	// To is the advised target server.
	To string
	// WorkloadMS is the calibrated per-compilation workload the nickname
	// contributed on the hot server.
	WorkloadMS float64
	// Reason is a human-readable justification.
	Reason string
}

const (
	// defaultHotFactor is the calibration factor above which a server counts
	// as persistently hot when the caller passes none.
	defaultHotFactor = 1.5
	// maxRecommendations bounds the advisor's output.
	maxRecommendations = 3
)

// AdvisePlacement analyzes the explain history and current calibration
// state and returns at most maxRecommendations ranked replication
// recommendations. minFactor is the calibration factor above which a server
// counts as persistently hot (0: defaultHotFactor). Only nicknames that are
// NOT already hosted by a cool candidate are recommended (replication adds an
// equivalent source; it is pointless when one already exists).
func (q *QCC) AdvisePlacement(cat *catalog.Catalog, entries []journal.Winner, minFactor float64) []PlacementRecommendation {
	if minFactor == 0 {
		minFactor = defaultHotFactor
	}

	// Workload per (server, nickname): calibrated estimate attributed to
	// every nickname a fragment covers.
	perServerNick := map[string]map[string]float64{}
	perServer := map[string]float64{}
	for _, e := range entries {
		for _, f := range e.Fragments {
			perServer[f.Server] += f.EstMS
			for _, nick := range f.Tables {
				if perServerNick[f.Server] == nil {
					perServerNick[f.Server] = map[string]float64{}
				}
				perServerNick[f.Server][nick] += f.EstMS
			}
		}
	}
	if len(perServer) == 0 {
		return nil
	}

	// Candidate servers: everything QCC has seen plus everything the
	// catalog places data on (a cool server may never have been routed to,
	// which is exactly why it is a good replication target).
	serverSet := map[string]bool{}
	for _, s := range q.Calib.KnownServers() {
		serverSet[s] = true
	}
	for s := range perServer {
		serverSet[s] = true
	}
	for _, name := range cat.Names() {
		if n, err := cat.Lookup(name); err == nil {
			for _, p := range n.Placements {
				serverSet[p.ServerID] = true
			}
		}
	}
	servers := make([]string, 0, len(serverSet))
	for s := range serverSet {
		servers = append(servers, s)
	}
	sort.Strings(servers)

	heat := func(s string) float64 { return q.Calib.ServerFactor(s) * q.Rel.Factor(s) }

	// Coolest viable target: lowest heat, not fenced.
	var recs []PlacementRecommendation
	for _, hot := range servers {
		if heat(hot) < minFactor || q.Avail.IsDown(hot) {
			continue
		}
		type nickLoad struct {
			nick string
			load float64
		}
		var loads []nickLoad
		for nick, load := range perServerNick[hot] {
			loads = append(loads, nickLoad{nick, load})
		}
		sort.Slice(loads, func(i, j int) bool {
			if loads[i].load != loads[j].load {
				return loads[i].load > loads[j].load
			}
			return loads[i].nick < loads[j].nick
		})
		for _, nl := range loads {
			n, err := cat.Lookup(nl.nick)
			if err != nil {
				continue
			}
			// Skip when a cool host already exists: the optimizer can
			// already route around the hot server.
			hasCool := false
			for _, p := range n.Placements {
				if p.ServerID != hot && heat(p.ServerID) < minFactor && !q.Avail.IsDown(p.ServerID) {
					hasCool = true
					break
				}
			}
			if hasCool {
				continue
			}
			target := ""
			best := 0.0
			for _, cand := range servers {
				if q.Avail.IsDown(cand) || n.PlacementOn(cand) != nil {
					continue
				}
				h := heat(cand)
				if h >= minFactor {
					continue
				}
				if target == "" || h < best {
					target, best = cand, h
				}
			}
			if target == "" {
				continue
			}
			recs = append(recs, PlacementRecommendation{
				Nickname:   nl.nick,
				From:       hot,
				To:         target,
				WorkloadMS: nl.load,
				Reason: fmt.Sprintf("%s carries %.0fms of calibrated workload for %q at factor %.2f; %s is cool (factor %.2f) and does not host it",
					hot, nl.load, nl.nick, heat(hot), target, best),
			})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].WorkloadMS != recs[j].WorkloadMS {
			return recs[i].WorkloadMS > recs[j].WorkloadMS
		}
		return recs[i].Nickname < recs[j].Nickname
	})
	if len(recs) > maxRecommendations {
		recs = recs[:maxRecommendations]
	}
	return recs
}
