package obs

import (
	"context"
	"log/slog"
)

// DiscardHandler drops every record.  It stands in for a nil Logger
// option, so the daemon, coordinator and worker never nil-check their
// logger.  (slog.DiscardHandler needs Go 1.24, newer than go.mod's
// go line and the CI matrix's 1.23.)
type DiscardHandler struct{}

func (DiscardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (DiscardHandler) Handle(context.Context, slog.Record) error { return nil }
func (DiscardHandler) WithAttrs([]slog.Attr) slog.Handler        { return DiscardHandler{} }
func (DiscardHandler) WithGroup(string) slog.Handler             { return DiscardHandler{} }
