package resultstore

import (
	"context"

	"repro/internal/memo"
)

// DefaultMemoryCap bounds the in-memory adapter when no capacity is given;
// it matches the in-process fingerprint memo's historical default.
const DefaultMemoryCap = 4096

// Memory is the in-memory adapter: a memo.Cache of LRU-evicted records.
// Values are copied on both Put and Get, so callers can never alias the
// store's internal buffers.
type Memory struct {
	m *memo.Cache[Key, []byte]
}

// NewMemory returns an in-memory store evicting past cap entries
// (cap <= 0 selects DefaultMemoryCap).
func NewMemory(cap int) *Memory {
	if cap <= 0 {
		cap = DefaultMemoryCap
	}
	return &Memory{m: memo.New[Key, []byte](int64(cap))}
}

// Get implements Store.
func (s *Memory) Get(_ context.Context, k Key) ([]byte, bool, error) {
	if err := k.Validate(); err != nil {
		return nil, false, err
	}
	v, ok := s.m.Peek(k)
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// Put implements Store.
func (s *Memory) Put(_ context.Context, k Key, value []byte) error {
	if err := k.Validate(); err != nil {
		return err
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	s.m.Put(k, cp)
	return nil
}

// Delete implements Store.
func (s *Memory) Delete(_ context.Context, k Key) error {
	if err := k.Validate(); err != nil {
		return err
	}
	s.m.Remove(k)
	return nil
}

// Len implements Store.
func (s *Memory) Len() (int, error) { return s.m.Len(), nil }

// Close implements Store.
func (s *Memory) Close() error { return nil }
