package dpl

import (
	"fmt"
	"sort"
	"strings"
)

// Diagnostics. Every rejection of a DPL program — a parse error, a
// Translator rule (Check), a static-analysis finding or a bytecode
// verifier fault — is one Diagnostic carrying a stable
// machine-readable code, so rejections survive serialization across
// the RDS protocol and delegators can match on them.

// Severity ranks a diagnostic.
type Severity uint8

// Severities.
const (
	// SevWarning marks a suspicious construct that does not, by
	// itself, reject a dp (strict admission upgrades warnings).
	SevWarning Severity = iota + 1
	// SevError marks a rule violation that rejects the dp at
	// admission.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	default:
		return "warning"
	}
}

// Stable diagnostic codes, the one table of them. Codes are
// append-only: once published they keep their meaning forever, because
// delegators match on them.
const (
	// DPL001–009 are produced by the static analyzer
	// (internal/dpl/analysis) and by admission.

	// CodeUseBeforeInit: a local variable may be read before any
	// assignment reaches it (it reads as nil).
	CodeUseBeforeInit = "DPL001"
	// CodeUnreachable: statements that no control path reaches.
	CodeUnreachable = "DPL002"
	// CodeDeadStore: a value assigned to a local that is never read.
	CodeDeadStore = "DPL003"
	// CodeGlobalNeverWritten: a global read somewhere but written
	// nowhere (it is always nil).
	CodeGlobalNeverWritten = "DPL004"
	// CodeBusyLoop: a provably infinite loop that never yields (no
	// sleep/recv on any path) and has no break.
	CodeBusyLoop = "DPL005"
	// CodeDynamicOID: a MIB primitive whose OID argument is not a
	// foldable constant, widening the inferred effect to the whole MIB.
	CodeDynamicOID = "DPL006"
	// CodeEffectDenied: the dp's inferred effects exceed the
	// delegating principal's capability grant (admission-time).
	CodeEffectDenied = "DPL007"
	// CodeCostCeiling: the dp's bounded cost estimate exceeds the
	// server's admission ceiling (admission-time).
	CodeCostCeiling = "DPL008"
	// CodeRecursion: a recursive call cycle, making cost unbounded.
	CodeRecursion = "DPL009"

	// DPL01x codes are produced by the bytecode verifier
	// (internal/dpl/verify) when admitting a CompiledProgram without
	// source.

	// CodeBadOpcode: an opcode outside the instruction set.
	CodeBadOpcode = "DPL010"
	// CodeBadJump: a jump target outside the code block.
	CodeBadJump = "DPL011"
	// CodeStackUnsafe: a stack underflow or inconsistent stack depth at
	// a control-flow join.
	CodeStackUnsafe = "DPL012"
	// CodeBadOperand: an out-of-bounds constant, global, local,
	// function or host index, or a malformed immediate.
	CodeBadOperand = "DPL013"
	// CodeEffectUndeclared: the bytecode can reach a host function or
	// MIB OID prefix its attached verdict does not declare.
	CodeEffectUndeclared = "DPL014"
	// CodeBudgetMismatch: the declared step budget or cost estimate is
	// inconsistent with the code (e.g. a bounded claim on recursive
	// code, or a budget below the provable worst case).
	CodeBudgetMismatch = "DPL015"
	// CodeVersionSkew: the artifact was produced by a different
	// compiler generation than this receiver runs.
	CodeVersionSkew = "DPL016"
	// CodeHostTableSkew: the artifact's host-call table does not match
	// the receiver's bindings layout.
	CodeHostTableSkew = "DPL017"

	// DPL018–024 are the Translator's: Parse and the resolver (Check).
	// Every one is error severity.

	// CodeParse: the source does not lex or parse.
	CodeParse = "DPL018"
	// CodeUndeclared: a read of, or an assignment to, a variable that
	// no enclosing scope declares.
	CodeUndeclared = "DPL019"
	// CodeUnboundCall: a call to a name that is neither a program
	// function nor in the allowed host function set.
	CodeUnboundCall = "DPL020"
	// CodeArity: a call whose argument count differs from the callee's
	// declared arity (program function or fixed-arity host function).
	CodeArity = "DPL021"
	// CodeLoopControl: break or continue outside any loop.
	CodeLoopControl = "DPL022"
	// CodeRedeclared: a function, global, parameter or same-scope
	// variable declared twice.
	CodeRedeclared = "DPL023"
	// CodeShadowsHost: a program function named like a host function.
	CodeShadowsHost = "DPL024"
)

// Diagnostic is one coded finding about a program.
type Diagnostic struct {
	Code string
	Sev  Severity
	Pos  Pos
	Msg  string
}

// String renders "line:col: severity[CODE]: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s[%s]: %s", d.Pos, d.Sev, d.Code, d.Msg)
}

// Error renders the diagnostic like String, so a Translator finding can
// stand as an error value on its own.
func (d Diagnostic) Error() string { return d.String() }

// SortDiags orders diagnostics by position, then code.
func SortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Sev == SevError {
			return true
		}
	}
	return false
}

// Counts returns the number of errors and warnings.
func Counts(diags []Diagnostic) (errs, warns int) {
	for _, d := range diags {
		if d.Sev == SevError {
			errs++
		} else {
			warns++
		}
	}
	return errs, warns
}

// Error is a program rejected by its diagnostics, as one error value:
// Parse returns one holding a single CodeParse diagnostic, Compile one
// holding the Translator's findings, and the bytecode verifier one
// holding its faults.
type Error struct {
	Diags []Diagnostic
}

// Error implements error.
func (e *Error) Error() string {
	msgs := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		msgs[i] = d.String()
	}
	return "dpl: " + strings.Join(msgs, "\n  ")
}

func errAt(line, col int, format string, args ...any) *Error {
	return &Error{Diags: []Diagnostic{{
		Code: CodeParse,
		Sev:  SevError,
		Pos:  Pos{Line: line, Col: col},
		Msg:  fmt.Sprintf(format, args...),
	}}}
}
