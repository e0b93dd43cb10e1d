package ckpt

import (
	"bytes"
	"fmt"

	"lossyckpt/internal/core"
	"lossyckpt/internal/guard"
)

// StreamEntry is one entry's metadata as seen by InspectStream.
type StreamEntry struct {
	Name         string
	Shape        []int
	PayloadBytes int
	// Guarantee is the guard annotation the payload envelope carries
	// (nil for non-guard codecs).
	Guarantee *guard.Annotation
	// Entropy names the entry's entropy framing ("gzip", "lz4+shuffle",
	// …), sniffed through guard envelopes and chunked framing without
	// decoding; "unknown" for payloads with no recognizable entropy
	// stage (the none/fpc codecs).
	Entropy string
}

// StreamInfo is the registration-free summary of one checkpoint stream.
type StreamInfo struct {
	Codec   string
	Step    int
	Entries []StreamEntry
}

// InspectStream parses a checkpoint stream's framing without decoding
// payloads: header, per-frame CRCs, entry bodies, and any guard
// annotations. Any damage is an error (use loadStream's lenient mode for
// salvage semantics).
func InspectStream(data []byte) (*StreamInfo, error) {
	return inspectStream(data, false, 0)
}

// inspectStream is InspectStream that, with decode set, also decodes
// every entry in the same pass (lossy parallelism bounded by workers).
func inspectStream(data []byte, decode bool, workers int) (*StreamInfo, error) {
	sc, err := openStream(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var codec Codec
	if decode {
		if codec, err = codecFor(sc.hdr.Codec, workers); err != nil {
			return nil, err
		}
	}
	info := &StreamInfo{Codec: sc.hdr.Codec, Step: sc.hdr.Step}
	_, err = sc.each(false, func(ent *rawEntry) error {
		se := StreamEntry{Name: ent.Name, Shape: ent.Shape, PayloadBytes: len(ent.Payload)}
		inner := ent.Payload
		if guard.IsEnveloped(ent.Payload) {
			ann, err := guard.ParseAnnotation(ent.Payload)
			if err != nil {
				return fmt.Errorf("ckpt: entry %q guard envelope: %w", ent.Name, err)
			}
			se.Guarantee = &ann
			if p, err := guard.InnerPayload(ent.Payload); err == nil {
				inner = p
			}
		}
		se.Entropy = core.IdentifyEntropy(inner)
		if codec != nil {
			if _, err := codec.Decode(ent.Payload, ent.Shape); err != nil {
				return fmt.Errorf("ckpt: decoding %q: %w", ent.Name, err)
			}
		}
		info.Entries = append(info.Entries, se)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// StoreVerifier returns the store.ScrubOptions.Verify callback that
// re-audits retained generations beyond the store's own size+CRC check:
// framing and per-frame CRCs always, guard envelope CRCs and annotations
// when present, and — with decode set — a full decode of every entry,
// all in one pass over the stream.
func StoreVerifier(decode bool, workers int) func([]byte) error {
	return func(data []byte) error {
		_, err := inspectStream(data, decode, workers)
		return err
	}
}
