package exec

// BlockingStage walks a materialized plan and returns the name of the first
// pipeline-breaking operator ("sort", "aggregate" or "distinct"), or "" when
// the plan pipelines. The remote cursor uses this to decide whether a plan's
// output can be split into batches on the first/next-tuple timing model; the
// integrator records it on the merge span.
func BlockingStage(op Operator) string {
	switch op.(type) {
	case *Sort:
		return "sort"
	case *Aggregate, *ShardAggFinal:
		return "aggregate"
	case *Distinct:
		return "distinct"
	}
	for _, c := range op.Children() {
		if s := BlockingStage(c); s != "" {
			return s
		}
	}
	return ""
}
