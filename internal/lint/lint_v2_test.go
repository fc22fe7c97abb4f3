package lint

import (
	"strings"
	"testing"
)

func TestLockGuardRuleFires(t *testing.T) {
	p := fixture(t, "lockguardbad")
	got := NewLockGuardRule().Check(p)
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{13, "no sync.Mutex/RWMutex field named nosuch"},
		{17, "read of s.jobs requires holding s.mu.Lock"},
		{23, "write of s.jobs requires holding s.mu.Lock"},
		{29, "write (under RLock only) of s.hits"},
		{37, "read of s.jobs requires holding s.mu.Lock"},
		{43, "write of s.jobs requires holding s.mu.Lock"},
	})
}

func TestLockGuardRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "lockguardok")
	if got := NewLockGuardRule().Check(p); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func TestLockGuardRuleRespectsPackageSelection(t *testing.T) {
	p := fixture(t, "lockguardbad")
	r := &LockGuardRule{Packages: []string{"internal/serve"}}
	if got := r.Check(p); len(got) != 0 {
		t.Fatalf("rule fired outside its package selection: %v", got)
	}
}

func TestLockOrderRuleFires(t *testing.T) {
	p := fixture(t, "lockorderbad")
	got := RunAudit([]Rule{NewLockOrderRule()}, []*Package{p})
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{22, "lock-order cycle among {lockorderbad.A.mu, lockorderbad.B.mu}"},
		{49, "RLock->Lock upgrades deadlock sync.RWMutex"},
		{58, "self-deadlock"},
		{66, "same-class nesting"},
	})
	// The cycle message carries both witness edges, including the one
	// discovered through the TakeBA -> lockA call chain.
	if !strings.Contains(got[0].Msg, "TakeBA -> lockA") {
		t.Errorf("cycle msg %q does not cite the call-chain witness", got[0].Msg)
	}
}

func TestLockOrderRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "lockorderok")
	if got := NewLockOrderRule().CheckModule([]*Package{p}); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func TestLockOrderRuleRespectsPackageSelection(t *testing.T) {
	p := fixture(t, "lockorderbad")
	r := &LockOrderRule{Packages: []string{"internal/serve"}}
	if got := r.CheckModule([]*Package{p}); len(got) != 0 {
		t.Fatalf("rule fired outside its package selection: %v", got)
	}
}

func ctxPropRule(path string) *CtxPropRule {
	return &CtxPropRule{Packages: []string{"testdata/src/" + path}}
}

func TestCtxPropRuleFires(t *testing.T) {
	p := fixture(t, "ctxpropbad")
	got := RunAudit([]Rule{ctxPropRule("ctxpropbad")}, []*Package{p})
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{18, "time.Sleep"},
		{22, "context.Background()"},
		{24, "http.NewRequest"},
		{37, "(*http.Client).Get"},
	})
	// Chains render from the ctx-carrying root.
	if !strings.Contains(got[0].Msg, "Handle -> wait") {
		t.Errorf("finding msg %q does not show the chain from the root", got[0].Msg)
	}
}

func TestCtxPropRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "ctxpropok")
	if got := ctxPropRule("ctxpropok").Check(p); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func TestCtxPropRuleRespectsPackageSelection(t *testing.T) {
	p := fixture(t, "ctxpropbad")
	if got := NewCtxPropRule().Check(p); len(got) != 0 {
		t.Fatalf("rule fired outside its package selection: %v", got)
	}
}

func goLeakRule(path string) *GoLeakRule {
	return &GoLeakRule{Packages: []string{"testdata/src/" + path}}
}

func TestGoLeakRuleFires(t *testing.T) {
	p := fixture(t, "goleakbad")
	got := RunAudit([]Rule{goLeakRule("goleakbad")}, []*Package{p})
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{8, "loops forever"},
		{16, "loops forever"},
	})
}

func TestGoLeakRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "goleakok")
	if got := goLeakRule("goleakok").Check(p); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func TestGoLeakRuleRespectsPackageSelection(t *testing.T) {
	p := fixture(t, "goleakbad")
	if got := NewGoLeakRule().Check(p); len(got) != 0 {
		t.Fatalf("rule fired outside its package selection: %v", got)
	}
}

// TestRunAuditFlagsStaleIgnores: a directive naming the wrong rule (and
// therefore suppressing nothing) is itself a finding, while the directive
// that suppresses something is not.
func TestRunAuditFlagsStaleIgnores(t *testing.T) {
	p := fixture(t, "ignored")
	got := RunAudit([]Rule{&NondetRule{}}, []*Package{p})
	var stale, nondet int
	for _, f := range got {
		switch f.Rule {
		case "unusedignore":
			stale++
		case "nondeterminism":
			nondet++
		default:
			t.Errorf("unexpected rule %s: %s", f.Rule, f)
		}
	}
	if nondet != 1 {
		t.Errorf("want 1 surviving nondet finding, got %d", nondet)
	}
	if stale == 0 {
		t.Error("want at least one unusedignore finding for the wrong-rule directive")
	}
	for _, f := range got {
		if f.Rule == "unusedignore" && !strings.Contains(f.Msg, "suppresses no finding") {
			t.Errorf("stale msg %q", f.Msg)
		}
	}
}

func TestDeadCodeRuleFires(t *testing.T) {
	p := fixture(t, "deadcodebad")
	got := RunAudit([]Rule{NewDeadCodeRule()}, []*Package{p})
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{8, "T.Get has no non-test reference"},
		{11, "T.String has no non-test reference"},
		{14, "helper has no non-test reference"},
		{17, "Exported has no non-test reference"},
		{23, "Box.Peek has no non-test reference"},
	})
}

func TestDeadCodeRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "deadcodeok")
	// RunAudit (not CheckModule) so the fixture's justified exception
	// applies, and so a directive that suppressed nothing would fail.
	if got := RunAudit([]Rule{NewDeadCodeRule()}, []*Package{p}); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}
