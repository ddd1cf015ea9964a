package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
	"repro/internal/store"
)

// concurrency is the number of clients, daemon workers and agents: the
// CPU count of the 2-CPU machine the benchmark was sized on, so the
// figures measure the program and not the scheduler.
const concurrency = 2

// fleetTenants is the gateway's tenant table: one tenant per priority
// class, rate-limited far above the benchmark's rates so no request is
// refused for admission control.
var fleetTenants = []gateway.TenantConfig{
	{Name: "alpha", Key: "alpha-key", RatePerSec: 1000, Burst: 2000, MaxActive: -1, Priority: "high"},
	{Name: "beta", Key: "beta-key", RatePerSec: 1000, Burst: 2000, MaxActive: -1, Priority: "normal"},
	{Name: "gamma", Key: "gamma-key", RatePerSec: 1000, Burst: 2000, MaxActive: -1, Priority: "low"},
}

// target is a running system under test: a clrearlyd daemon or a gateway
// fleet, served over a loopback listener inside this process.
type target struct {
	url     string
	gateway bool
	stop    func() error
}

// serve runs h on a fresh loopback listener and returns its URL and a stop
// function that shuts the server down and waits for Serve to return.
func serve(h http.Handler) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop := func(ctx context.Context) error {
		// A pooled client connection that never carried a request counts
		// as active for five seconds of Shutdown; close those first.
		httpClient.CloseIdleConnections()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// startDaemon starts an in-process clrearlyd: service.New with the
// benchmark's worker count, served on loopback.
func startDaemon() (*target, error) {
	srv := service.New(service.Config{Workers: concurrency, QueueCap: 64})
	url, stopHTTP, err := serve(srv)
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	return &target{url: url, stop: func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := stopHTTP(ctx)
		if serr := srv.Shutdown(ctx); err == nil {
			err = serr
		}
		return err
	}}, nil
}

// startFleet starts an in-process gateway with a durable store under dir
// and concurrency agents leasing from it over loopback.
func startFleet(dir string) (*target, error) {
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	gw, err := gateway.New(gateway.Config{
		Tenants:     fleetTenants,
		WorkerToken: "fleet-token",
		QueueCap:    4096,
		LeaseTTL:    10 * time.Second,
		Store:       st,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	url, stopHTTP, err := serve(gw)
	if err != nil {
		gw.Close()
		st.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var agents []*gateway.Agent
	stop := func() error {
		cancel()
		for _, a := range agents {
			a.Stop()
		}
		wg.Wait()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		err := stopHTTP(sctx)
		gw.Close()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	for i := 0; i < concurrency; i++ {
		a, err := gateway.NewAgent(gateway.AgentConfig{
			Gateway:     url,
			Token:       "fleet-token",
			Name:        fmt.Sprintf("w%d", i),
			PollTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			_ = stop()
			return nil, err
		}
		agents = append(agents, a)
		wg.Add(1)
		go func() { defer wg.Done(); a.Run(ctx) }()
	}
	return &target{url: url, gateway: true, stop: stop}, nil
}

// start brings up the workload's system and waits until it answers
// /healthz.
func start(workload, workDir string) (*target, error) {
	var t *target
	var err error
	if workload == wlGatewayMixed {
		var dir string
		if dir, err = os.MkdirTemp(workDir, "store-"); err != nil {
			return nil, err
		}
		if t, err = startFleet(dir); err != nil {
			_ = os.RemoveAll(dir)
		}
	} else {
		t, err = startDaemon()
	}
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(t.url); err != nil {
		_ = t.stop()
		return nil, err
	}
	return t, nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := httpClient.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz did not answer: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
