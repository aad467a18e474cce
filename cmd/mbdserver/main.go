// Command mbdserver runs an MbD server on real sockets: an elastic
// process accepting RDS delegations on a TCP port, co-located with a
// simulated managed device whose MIB is served by an SNMP agent on a
// UDP port. A background driver advances the device's virtual traffic
// in real time so counters move while you watch.
//
// Usage:
//
//	mbdserver [-rds :5500] [-snmp :1161] [-name lab-router]
//	          [-community public] [-secret mgr=s3cret ...] [-repo dir]
//	          [-strict] [-costceiling n] [-obs :9090] [-views file.vdl]
//	          [-quota spec] [-tenantquota principal:spec ...]
//	          [-schedworkers n] [-maxrepo bytes]
//
// Multi-tenant isolation: -quota sets the default per-principal quota
// (spec keys: dpis, steps, events, repo, reqs, weight — see mbdctl
// tenant quota), -tenantquota grants per-principal overrides,
// -schedworkers sizes the weighted-fair DPI scheduler's run-slot pool,
// and -maxrepo caps total stored program bytes. See docs/TENANCY.md.
//
// With -obs, the server exposes its own telemetry three ways: an HTTP
// endpoint serving Prometheus /metrics, /debug/pprof/* and /tracez; the
// same counters self-published as a read-only MIB subtree
// (1.3.6.1.4.1.424242.2) walkable over SNMP like any managed object —
// the management system managing itself; and the RDS stats operation
// (mbdctl stats / mbdctl trace).
//
// Every delegation passes through the static analyzer at admission;
// -strict rejects programs carrying any analyzer warning, and
// -costceiling n refuses programs whose estimated instruction cost
// exceeds n (unbounded programs included).
//
// With -repo, delegated programs load from dir/*.dpl at startup (each
// re-checked by the Translator) and the repository is saved back on
// shutdown — the paper's file-system-backed Repository. The directory
// doubles as a warm-restart checkpoint: shutdown also records the
// still-running instances (dpis.json), and the next boot re-admits the
// programs and re-instantiates the ones delegated with restart policy
// "always".
//
// Shutdown is graceful: on SIGTERM/SIGINT the server stops accepting,
// gives each live RDS connection -drain to finish its in-flight request
// and flush events, checkpoints the repository, and only then stops the
// elastic process.
//
// With -domain, the server joins (or roots) a management domain: each
// member sends its parent one coalesced sync frame per heartbeat —
// liveness, pending rollup deltas, and its golden-bundle inventory in a
// single round trip — and serves the domain bundle operations (mbdctl
// domain rollout / rollback / bundles) for content-addressed,
// atomically-switched program distribution.
//
// The server runs one view agent (the MCVA), which keeps every VDL view
// continuously materialized (O(delta) work per MIB write). Views come
// in from the -views file, the RDS view operation (mbdctl view define)
// or a delegated program's viewDefine(), and whichever way one came in
// it is served over the RDS view operation (mbdctl view status / query
// / watch), to delegated programs (viewQuery) and to plain SNMP
// managers as the v-mib subtree 1.3.6.1.4.1.424242.1. See docs/VDL.md.
//
// With one or more -secret principal=secret flags, RDS requests must
// carry a valid MD5 digest; otherwise authentication is off (the first
// prototype's behavior).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/federation"
	"mbd/internal/mbd"
	"mbd/internal/mib"
	"mbd/internal/obs"
	"mbd/internal/obs/obsmib"
	"mbd/internal/rds"
	"mbd/internal/vdl"
)

type secretsFlag []string

func (s *secretsFlag) String() string { return strings.Join(*s, ",") }
func (s *secretsFlag) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want principal=secret, got %q", v)
	}
	*s = append(*s, v)
	return nil
}

// tenantQuotaFlag collects repeatable -tenantquota principal:spec
// overrides, each spec in elastic.ParseQuota form.
type tenantQuotaFlag map[string]elastic.Quota

func (t tenantQuotaFlag) String() string { return fmt.Sprintf("%d overrides", len(t)) }
func (t tenantQuotaFlag) Set(v string) error {
	principal, spec, ok := strings.Cut(v, ":")
	if !ok || principal == "" {
		return fmt.Errorf("want principal:quota-spec, got %q", v)
	}
	q, err := elastic.ParseQuota(spec)
	if err != nil {
		return err
	}
	t[principal] = q
	return nil
}

// config is everything the flags decide; main parses them straight
// into it and run reads nothing else.
type config struct {
	rdsAddr, snmpAddr string
	name, community   string
	repoDir           string
	secrets           secretsFlag
	strict            bool
	costCeiling       uint64
	obsAddr           string
	viewsFile         string
	drain             time.Duration

	domain, parent, advertise string
	rollup                    string
	heartbeat                 time.Duration

	quota        string
	tenantQuotas tenantQuotaFlag
	schedWorkers int
	maxRepo      int64
}

func main() {
	c := config{tenantQuotas: tenantQuotaFlag{}}
	flag.StringVar(&c.rdsAddr, "rds", ":5500", "RDS (delegation) TCP listen address")
	flag.StringVar(&c.snmpAddr, "snmp", ":1161", "SNMP UDP listen address")
	flag.StringVar(&c.name, "name", "lab-router", "device sysName")
	flag.StringVar(&c.community, "community", "public", "SNMP community")
	flag.StringVar(&c.repoDir, "repo", "", "directory backing the DP repository (load at start, save at exit)")
	flag.BoolVar(&c.strict, "strict", false, "strict admission: reject delegations with any analyzer warning")
	flag.Uint64Var(&c.costCeiling, "costceiling", 0, "reject delegations whose estimated cost exceeds this (0 = off; nonzero also rejects unbounded programs)")
	flag.StringVar(&c.obsAddr, "obs", "", "observability HTTP listen address (/metrics, /debug/pprof, /tracez); empty disables")
	flag.StringVar(&c.viewsFile, "views", "", "VDL file whose views are kept continuously materialized (empty = engine on, no initial views)")
	flag.DurationVar(&c.drain, "drain", 2*time.Second, "graceful-shutdown drain grace per RDS connection (0 = close immediately)")
	flag.StringVar(&c.domain, "domain", "", "management domain this server roots; empty disables federation")
	flag.StringVar(&c.parent, "parent", "", "parent domain root's RDS address (empty = top root)")
	flag.StringVar(&c.advertise, "advertise", "", "RDS address peers use to reach this server (default derives from -rds)")
	flag.StringVar(&c.rollup, "rollup", "latest", "default rollup combiner: sum, max or latest")
	flag.DurationVar(&c.heartbeat, "heartbeat", time.Second, "federation heartbeat interval")
	flag.StringVar(&c.quota, "quota", "", "default per-principal quota, e.g. dpis=8,steps=200000,events=50,repo=65536,reqs=100,weight=1 (empty = unlimited)")
	flag.IntVar(&c.schedWorkers, "schedworkers", 0, "weighted-fair DPI scheduler run slots (0 = max(2, GOMAXPROCS), negative disables scheduling)")
	flag.Int64Var(&c.maxRepo, "maxrepo", 0, "repository byte ceiling across all principals (0 = 64 MiB default, negative = unlimited)")
	flag.Var(c.tenantQuotas, "tenantquota", "per-principal quota override as principal:spec (repeatable)")
	flag.Var(&c.secrets, "secret", "principal=secret for MD5 auth (repeatable)")
	flag.Parse()
	if err := run(c); err != nil {
		log.Fatal(err)
	}
}

// combiner maps the -rollup flag to a federation combiner.
func (c config) combiner() (federation.Combiner, error) {
	switch c.rollup {
	case "", "latest":
		return federation.Latest(), nil
	case "sum":
		return federation.Sum(), nil
	case "max":
		return federation.Max(), nil
	}
	return nil, fmt.Errorf("unknown -rollup combiner %q (want sum, max or latest)", c.rollup)
}

// advertiseAddr derives a dialable advertised address from the RDS
// listen address when -advertise is not given.
func (c config) advertiseAddr() string {
	if c.advertise != "" {
		return c.advertise
	}
	if strings.HasPrefix(c.rdsAddr, ":") {
		return "127.0.0.1" + c.rdsAddr
	}
	return c.rdsAddr
}

func run(c config) error {
	quota, err := elastic.ParseQuota(c.quota)
	if err != nil {
		return err
	}
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: c.name, Interfaces: 4, Seed: time.Now().UnixNano()})
	if err != nil {
		return err
	}
	dev.AddRoute([4]byte{0, 0, 0, 0}, 1, 1, [4]byte{10, 0, 0, 254})

	// Observability: one registry and trace ring shared by every layer.
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if c.obsAddr != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(1024)
		reg.FuncGauge("go_goroutines", "live goroutines", func() int64 {
			return int64(runtime.NumGoroutine())
		})
		reg.FuncGauge("go_heap_alloc_bytes", "heap bytes in use", func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		})
	}

	var auth *rds.Authenticator
	if len(c.secrets) > 0 {
		auth = rds.NewAuthenticator()
		for _, kv := range c.secrets {
			parts := strings.SplitN(kv, "=", 2)
			auth.SetSecret(parts[0], parts[1])
		}
	}

	var fedCfg *federation.Config
	if c.domain != "" {
		comb, err := c.combiner()
		if err != nil {
			return err
		}
		fedCfg = &federation.Config{
			Name:              c.name,
			Domain:            c.domain,
			Parent:            c.parent,
			Advertise:         c.advertiseAddr(),
			Auth:              auth,
			Combiner:          comb,
			HeartbeatInterval: c.heartbeat,
		}
	}

	var viewDefs []string
	if c.viewsFile != "" {
		src, err := os.ReadFile(c.viewsFile)
		if err != nil {
			return fmt.Errorf("reading -views file: %w", err)
		}
		viewDefs = append(viewDefs, string(src))
	}

	srv, err := mbd.New(mbd.Config{
		Device:          dev,
		Community:       c.community,
		EnableViews:     true,
		ViewDefs:        viewDefs,
		StrictAdmission: c.strict,
		CostCeiling:     c.costCeiling,
		Obs:             reg,
		Tracer:          tracer,
		Federation:      fedCfg,

		Quota:              quota,
		TenantQuotas:       c.tenantQuotas,
		SchedWorkers:       c.schedWorkers,
		MaxRepositoryBytes: c.maxRepo,
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	// The same maintained views the RDS view op and the DPL view
	// services read, served to plain SNMP managers as the v-mib.
	if err := dev.Tree().Mount(vdl.OIDViews, srv.Views().Handler()); err != nil {
		return err
	}
	if c.repoDir != "" {
		if err := os.MkdirAll(c.repoDir, 0o755); err != nil {
			return fmt.Errorf("creating repository dir: %w", err)
		}
		// Warm restart: re-admit stored programs and re-instantiate the
		// checkpoint's always-policy instances through the normal
		// analysis/admission gate.
		nDP, nDPI, err := srv.Process().LoadCheckpoint(c.repoDir, "repository")
		if err != nil {
			return fmt.Errorf("loading checkpoint: %w", err)
		}
		log.Printf("loaded %d delegated programs from %s, re-instantiated %d always-restart instances", nDP, c.repoDir, nDPI)
		// Registered after `defer srv.Stop()`, so it runs first — while
		// the instances whose specs the checkpoint records still live.
		defer func() {
			if err := srv.Process().SaveCheckpoint(c.repoDir); err != nil {
				log.Printf("saving checkpoint: %v", err)
			} else {
				log.Printf("checkpoint saved to %s", c.repoDir)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Drive the device: nominal load advancing in real time.
	dev.SetLoad(mib.LoadProfile{Utilization: 0.2, BroadcastFraction: 0.04, ErrorRate: 0.002, CollisionRate: 0.03})
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				dev.Advance(time.Second)
			case <-ctx.Done():
				return
			}
		}
	}()

	// SNMP agent, serving its own protocol counters as the snmp group.
	if err := srv.Agent().MountStats(dev.Tree()); err != nil {
		return err
	}
	pc, err := net.ListenPacket("udp", c.snmpAddr)
	if err != nil {
		return fmt.Errorf("snmp listen: %w", err)
	}
	go func() {
		if err := srv.Agent().ServeUDP(ctx, pc); err != nil {
			log.Printf("snmp agent: %v", err)
		}
	}()
	log.Printf("SNMP agent on %s (community %q)", pc.LocalAddr(), c.community)

	// RDS server (its protocol counters join the shared registry; when
	// -obs is off it publishes on the process's private one).
	srvOpts := []rds.ServerOption{rds.WithDrainGrace(c.drain)}
	if reg != nil {
		srvOpts = append(srvOpts, rds.WithObs(reg), rds.WithTracer(tracer))
	}
	if node := srv.Federation(); node != nil {
		srvOpts = append(srvOpts, rds.WithPeerHandler(node))
		log.Printf("federation: domain %q as %q (parent %q, advertise %s, rollup %s)",
			c.domain, c.name, c.parent, c.advertiseAddr(), c.rollup)
	}
	srvOpts = append(srvOpts, rds.WithViewHandler(srv.Views()))
	if n := len(srv.Views().Views()); n > 0 {
		log.Printf("views: %d continuously materialized from %s", n, c.viewsFile)
	}
	rdsSrv := rds.NewServer(srv.Process(), auth, srvOpts...)

	// Observability endpoint + reflexive self-stats MIB subtree: the
	// same registry is scraped over HTTP and walked over SNMP.
	if reg != nil {
		if err := obsmib.Mount(dev.Tree(), reg, obsmib.OIDSelfStats); err != nil {
			return fmt.Errorf("mounting self-stats subtree: %w", err)
		}
		ol, err := net.Listen("tcp", c.obsAddr)
		if err != nil {
			return fmt.Errorf("obs listen: %w", err)
		}
		hs := &http.Server{Handler: obs.Handler(reg, tracer)}
		go func() {
			<-ctx.Done()
			hs.Close()
		}()
		go func() {
			if err := hs.Serve(ol); err != nil && err != http.ErrServerClosed {
				log.Printf("obs endpoint: %v", err)
			}
		}()
		log.Printf("observability endpoint on http://%s/metrics (self-MIB at %s)",
			ol.Addr(), obsmib.OIDSelfStats)
	}

	l, err := net.Listen("tcp", c.rdsAddr)
	if err != nil {
		return fmt.Errorf("rds listen: %w", err)
	}
	log.Printf("RDS delegation service on %s (auth: %v)", l.Addr(), auth != nil)
	go func() {
		<-ctx.Done()
		log.Printf("shutdown signal: draining connections (grace %s)", c.drain)
	}()
	return rdsSrv.Serve(ctx, l)
}
