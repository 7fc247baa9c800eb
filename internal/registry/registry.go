// Package registry provides the one generic name→value registry behind
// every seam of the pilot stack that is selected by name. Execution
// backends, unit schedulers and data backends each used to hand-roll
// the same ~45 lines of validate/list/lookup; they are now all
// instances of Registry[T], so the next seam is a one-liner:
//
//	var widgets = registry.New[func() Widget]("core", "widget", ErrUnknownWidget)
//
// A Registry preserves the registry contract the original
// implementations established: nil values, empty names and duplicates
// are rejected at Register time; Names lists sorted; Lookup wraps the
// registry's unknown-name sentinel so callers keep branching with
// errors.Is exactly as before the migration.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Registry is a named-value registry with the shared
// validate/list/lookup behavior. T is typically a factory function
// (e.g. func() Backend), so one registration serves many instantiations.
// The zero value is not usable; construct with New.
type Registry[T any] struct {
	prefix  string // error-message prefix, e.g. "core" or "data"
	noun    string // what is registered, e.g. "backend"
	unknown error  // sentinel wrapped by Lookup misses

	mu      sync.RWMutex
	entries map[string]T
}

// New builds a registry whose error messages read "<prefix>: ... <noun>
// ..." and whose Lookup misses wrap the unknown sentinel (matchable
// with errors.Is).
func New[T any](prefix, noun string, unknown error) *Registry[T] {
	return &Registry[T]{
		prefix:  prefix,
		noun:    noun,
		unknown: unknown,
		entries: make(map[string]T),
	}
}

// isNil reports whether v is a nil value of a nilable kind — the check
// the original registries did with `factory == nil` on concrete func
// types.
func isNil(v any) bool {
	if v == nil {
		return true
	}
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Chan, reflect.Slice, reflect.Interface:
		return rv.IsNil()
	}
	return false
}

// Register adds v under name. Registration fails on nil values, empty
// names, and duplicates — the contract every migrated registry had.
func (r *Registry[T]) Register(name string, v T) error {
	if isNil(v) {
		return fmt.Errorf("%s: nil %s factory", r.prefix, r.noun)
	}
	if name == "" {
		return fmt.Errorf("%s: %s needs a name", r.prefix, r.noun)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("%s: %s %q already registered", r.prefix, r.noun, name)
	}
	r.entries[name] = v
	return nil
}

// MustRegister is Register for init-time built-ins: it panics on error.
func (r *Registry[T]) MustRegister(name string, v T) {
	if err := r.Register(name, v); err != nil {
		panic(err)
	}
}

// Lookup returns the value registered under name. A miss wraps the
// registry's unknown-name sentinel and lists what is registered, so the
// error both matches errors.Is and reads like the originals:
//
//	core: unknown backend "dask" (registered: hpc, spark, yarn)
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s: %w %q (registered: %s)",
			r.prefix, r.unknown, name, strings.Join(r.Names(), ", "))
	}
	return v, nil
}

// Names lists the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Has reports whether name is registered.
func (r *Registry[T]) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[name]
	return ok
}

// Unregister removes name, tolerating absent entries. Tests use it to
// clean registrations up; production code never unregisters.
func (r *Registry[T]) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, name)
}
