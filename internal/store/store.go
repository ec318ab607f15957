// Package store implements a peer's local message storage (Fig. 3 of
// the paper). Each stored file is a sequence of "pre-fabricated"
// encoded messages — an 8-byte file-id, an 8-byte message-id and an
// m-symbol payload — that the peer forwards verbatim when a user
// requests them, so serving needs no computation and no access to the
// coding secret.
//
// Two backends are provided: an in-memory store used by the simulator
// and tests, and a directory-backed store that persists each generation
// as a `<file-id>.dat` file exactly in the Fig. 3 layout.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"asymshare/internal/rlnc"
)

var (
	// ErrUnknownFile is returned when a requested file-id has no
	// messages in the store.
	ErrUnknownFile = errors.New("store: unknown file id")

	// ErrCorrupt is returned when persisted data cannot be parsed.
	ErrCorrupt = errors.New("store: corrupt data file")
)

// Store is a peer's message repository. Implementations must be safe
// for concurrent use.
type Store interface {
	// Put stores a message. Storing the same (file-id, message-id)
	// twice overwrites the previous payload. Put copies what it keeps:
	// it must neither retain nor mutate msg or msg.Payload once it has
	// returned, so a caller may hand it a message that aliases a buffer
	// about to be reused (the peer's PUT handler does).
	Put(msg *rlnc.Message) error

	// Messages returns the stored messages for a file in message-id
	// order. The caller must not mutate the returned messages.
	Messages(fileID uint64) ([]*rlnc.Message, error)

	// Get returns one stored message as a copy safe to mutate, or
	// ErrUnknownFile if either identifier is absent.
	Get(fileID, messageID uint64) (*rlnc.Message, error)

	// Count returns the number of messages held for a file (0 if none).
	Count(fileID uint64) int

	// Files lists the stored file-ids in ascending order.
	Files() []uint64

	// Drop removes every message of a file.
	Drop(fileID uint64) error
}

// Memory is an in-memory Store.
type Memory struct {
	mu    sync.RWMutex
	files map[uint64]map[uint64]*rlnc.Message
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{files: make(map[uint64]map[uint64]*rlnc.Message)}
}

// Put implements Store.
func (s *Memory) Put(msg *rlnc.Message) error {
	if msg == nil {
		return fmt.Errorf("store: nil message")
	}
	clone := msg.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.files[msg.FileID]
	if !ok {
		m = make(map[uint64]*rlnc.Message)
		s.files[msg.FileID] = m
	}
	m[msg.MessageID] = clone
	return nil
}

// Messages implements Store.
func (s *Memory) Messages(fileID uint64) ([]*rlnc.Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.files[fileID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFile, fileID)
	}
	out := make([]*rlnc.Message, 0, len(m))
	for _, msg := range m {
		out = append(out, msg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MessageID < out[j].MessageID })
	return out, nil
}

// Get implements Store.
func (s *Memory) Get(fileID, messageID uint64) (*rlnc.Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.files[fileID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFile, fileID)
	}
	msg, ok := m[messageID]
	if !ok {
		return nil, fmt.Errorf("%w: %d message %d", ErrUnknownFile, fileID, messageID)
	}
	return msg.Clone(), nil
}

// Count implements Store.
func (s *Memory) Count(fileID uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files[fileID])
}

// Files implements Store.
func (s *Memory) Files() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, 0, len(s.files))
	for id := range s.files {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Drop implements Store.
func (s *Memory) Drop(fileID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, fileID)
	return nil
}

// TotalMessages returns the number of messages across all files.
func (s *Memory) TotalMessages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, m := range s.files {
		n += len(m)
	}
	return n
}
