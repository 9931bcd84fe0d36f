package integrator

import (
	"repro/internal/exec"
	"repro/internal/optimizer"
)

// MergePlan is the II's merge tree for gp over leaves, one per logical
// fragment in plan order.
func MergePlan(gp *optimizer.GlobalPlan, leaves []exec.Operator) (exec.Operator, error) {
	_, parts := logicalFragments(gp)
	return mergePlan(gp, leaves, parts)
}
