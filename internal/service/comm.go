package service

import (
	"fmt"
	"slices"

	"fupermod/internal/commmodel"
	"fupermod/internal/core"
	"fupermod/internal/partition"
)

// CommSpec asks the partition endpoint to include communication cost in
// the balance: every device's predicted time becomes compute plus the
// fitted cost of its per-iteration traffic, BytesPerUnit·units bytes over
// the named network. The comm model is calibrated on the virtual runtime
// the first time a (net, op, ranks, model) combination is requested and
// cached on the server — calibration is deterministic, so the cache never
// goes stale.
type CommSpec struct {
	// Net is a commmodel network preset (see commmodel.NetNames).
	Net string `json:"net"`
	// Op is the measured operation (commmodel.Ops); empty selects "p2p",
	// the raw link cost.
	Op string `json:"op,omitempty"`
	// Model is the comm model kind, "hockney" or "loggp"; empty selects
	// "loggp".
	Model string `json:"model,omitempty"`
	// BytesPerUnit is the wire traffic one computation unit costs a
	// device per iteration; 0 prices communication at nothing.
	BytesPerUnit float64 `json:"bytes_per_unit"`
}

// normalize fills the spec's defaults and validates it.
func (c CommSpec) normalize(devices int) (commmodel.Spec, string, error) {
	op := commmodel.Op(c.Op)
	if c.Op == "" {
		op = commmodel.OpP2P
	}
	kind := c.Model
	if kind == "" {
		kind = "loggp"
	}
	if !slices.Contains(commmodel.ModelKinds(), kind) {
		return commmodel.Spec{}, "", fmt.Errorf("unknown comm model %q (want one of %v)", c.Model, commmodel.ModelKinds())
	}
	if c.BytesPerUnit < 0 {
		return commmodel.Spec{}, "", fmt.Errorf("negative bytes_per_unit %g", c.BytesPerUnit)
	}
	net, err := commmodel.NetByName(c.Net)
	if err != nil {
		return commmodel.Spec{}, "", err
	}
	// Point-to-point ops need a peer even when one device is partitioned.
	spec := commmodel.Spec{Op: op, Ranks: max(devices, 2), Net: net, NetName: c.Net}
	if err := spec.Validate(); err != nil {
		return commmodel.Spec{}, "", err
	}
	return spec, kind, nil
}

// commEntry is one cached (or in-flight) comm model calibration.
type commEntry struct {
	done chan struct{}
	m    commmodel.CommModel
	err  error
}

// commModel resolves the spec to a fitted comm model through the shard's
// calibration cache, with single-flight deduplication: concurrent first
// requests for the same combination trigger exactly one calibration. The
// returned tag fingerprints everything that shaped the wrapped models —
// it goes into the batch key and the response.
func (sh *shard) commModel(c CommSpec, devices int) (commmodel.CommModel, string, error) {
	spec, kind, err := c.normalize(devices)
	if err != nil {
		return nil, "", err
	}
	tag := fmt.Sprintf("%s/%s/%s/%d/%g", kind, spec.Op, spec.NetName, spec.Ranks, c.BytesPerUnit)
	cacheKey := fmt.Sprintf("%s|%s|%s|%d", kind, spec.Op, spec.NetName, spec.Ranks)

	sh.commMu.Lock()
	e, ok := sh.comms[cacheKey]
	if !ok {
		e = &commEntry{done: make(chan struct{})}
		sh.comms[cacheKey] = e
		sh.commMu.Unlock()
		sh.stats.commCalibrations.Add(1)
		cal, err := commmodel.Calibrate(sh.ctx, sh.pool, spec, nil, commmodel.DefaultPrecision)
		if err == nil {
			e.m, e.err = cal.Fit(kind, false)
		} else {
			e.err = err
		}
		if e.err != nil {
			// Failed fills are not cached: the next request retries.
			sh.commMu.Lock()
			delete(sh.comms, cacheKey)
			sh.commMu.Unlock()
		}
		close(e.done)
	} else {
		sh.commMu.Unlock()
		select {
		case <-e.done:
		case <-sh.ctx.Done():
			return nil, "", sh.ctx.Err()
		}
	}
	if e.err != nil {
		return nil, "", e.err
	}
	return e.m, tag, nil
}

// commWrap wraps the compute models with the spec's fitted comm model.
// Without a spec the models pass through untouched with an empty tag.
func (sh *shard) commWrap(c *CommSpec, models []core.Model) ([]core.Model, string, error) {
	if c == nil {
		return models, "", nil
	}
	cm, tag, err := sh.commModel(*c, len(models))
	if err != nil {
		return nil, "", err
	}
	comms := make([]partition.CommCost, len(models))
	for i := range comms {
		comms[i] = cm
	}
	wrapped, err := partition.WithCommModel(models, comms, partition.LinearBytes(c.BytesPerUnit))
	if err != nil {
		return nil, "", err
	}
	return wrapped, tag, nil
}
