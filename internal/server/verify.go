package server

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/resultcache"
	"repro/internal/verify"
	"repro/wave"
)

// UncertifiableError carries the failed certificate of a configuration that
// is well-formed but provably unsafe (a deadlock or livelock counterexample
// exists). The HTTP layer maps it to 422 with the certificate in the body,
// so a client sees the exact cycle it would have deadlocked on.
type UncertifiableError struct {
	Cert *verify.Certificate
}

// Error implements error.
func (e *UncertifiableError) Error() string {
	return "configuration failed certification: " + e.Cert.Failure()
}

// verdictCacheMax bounds the certificate cache; on overflow the whole map is
// dropped (the routing-table memoization pattern: re-proving is cheap, the
// cache exists so per-submit certification of the handful of configurations
// a client actually cycles through costs one map lookup).
const verdictCacheMax = 64

// verdictCache memoizes certificates by canonical effective configuration.
// An entry is installed before its proof starts, so a concurrent twin waits
// for that one proof instead of repeating it.
type verdictCache struct {
	mu sync.Mutex
	m  map[string]*verdict
}

// verdict is one cache entry: done closes once cert or err is set. An entry
// whose proof failed leaves the map, so a later call tries again.
type verdict struct {
	done chan struct{}
	cert *verify.Certificate
	err  error
}

// certifyConfig proves the effective simulator configuration (plus
// staticFaults pre-run random channel faults, mirroring runSim's
// InjectFaults seed) and caches the verdict. An error means the
// configuration is malformed (bad topology, unknown routing, VCs below the
// function's minimum); an uncertified configuration comes back as a
// certificate with Certified == false. A call that finds the configuration
// cached or being proven counts as a verdict-cache hit.
func (s *Server) certifyConfig(cfg wave.Config, staticFaults int) (*verify.Certificate, error) {
	// Same canonical addressing as the result cache (resultcache.Key):
	// struct-order-stable JSON hashed to a fixed-width digest, so any two
	// spellings of the same effective configuration share one verdict.
	key, err := resultcache.Key(struct {
		Cfg    wave.Config
		Faults int
	}{cfg, staticFaults})
	if err != nil {
		return nil, fmt.Errorf("canonicalize config: %w", err)
	}
	s.verdicts.mu.Lock()
	if v, ok := s.verdicts.m[key]; ok {
		s.verdicts.mu.Unlock()
		<-v.done
		if v.cert == nil {
			return nil, v.err
		}
		s.metrics.verifyCacheHits.Add(1)
		return v.cert, nil
	}
	if s.verdicts.m == nil || len(s.verdicts.m) >= verdictCacheMax {
		s.verdicts.m = make(map[string]*verdict)
	}
	v := &verdict{done: make(chan struct{}), err: errors.New("certification aborted")}
	s.verdicts.m[key] = v
	s.verdicts.mu.Unlock()

	defer func() {
		if v.cert == nil {
			s.verdicts.mu.Lock()
			if s.verdicts.m[key] == v {
				delete(s.verdicts.m, key)
			}
			s.verdicts.mu.Unlock()
		}
		close(v.done)
	}()
	v.cert, v.err = s.prove(cfg, staticFaults)
	return v.cert, v.err
}

// prove certifies one configuration and counts the verdict.
func (s *Server) prove(cfg wave.Config, staticFaults int) (*verify.Certificate, error) {
	topo, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	// The fault set the run will actually see: the static plan drawn with
	// runSim's seed (cfg.Seed+99) plus the schedule's permanent events.
	var faults []pcs.Channel
	if staticFaults > 0 {
		plan, err := fault.RandomChannels(topo, cfg.NumSwitches, staticFaults, cfg.Seed+99)
		if err != nil {
			return nil, err
		}
		faults = append(faults, plan.Channels...)
	}
	perm, err := cfg.PermanentFaultChannels(topo)
	if err != nil {
		return nil, err
	}
	faults = append(faults, perm...)

	cert, err := verify.Certify(verify.Spec{
		Topo:            topo,
		Routing:         cfg.Routing,
		NumVCs:          cfg.NumVCs,
		Protocol:        protocol.Kind(cfg.Protocol),
		NumSwitches:     cfg.NumSwitches,
		MaxMisroutes:    cfg.MaxMisroutes,
		ProbeRetryLimit: cfg.ProbeRetryLimit,
		RecoveryTimeout: cfg.RecoveryTimeout,
		Faults:          faults,
	})
	if err != nil {
		return nil, err
	}
	if cert.Certified {
		s.metrics.verifyCertified.Add(1)
	} else {
		s.metrics.verifyRejected.Add(1)
	}
	return cert, nil
}

// certifySpec gates a load/closed submission on static certification.
// Experiment jobs are not gated here: they build their own configurations
// internally, and the shipped set is certified wholesale by the verify
// package's experiment-matrix test.
func (s *Server) certifySpec(sp *Spec) error {
	if sp.Kind != KindLoad && sp.Kind != KindClosed {
		return nil
	}
	cert, err := s.certifyConfig(sp.simConfig(), sp.Faults)
	if err != nil {
		return err
	}
	if !cert.Certified {
		return &UncertifiableError{Cert: cert}
	}
	return nil
}
