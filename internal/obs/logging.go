package obs

import (
	"io"
	"log/slog"
)

// NewLogger returns a JSON logger writing to w at the given level, tagged
// with a component attribute when component is non-empty. The conventional
// entry point for the cmd binaries and the fleet.
func NewLogger(w io.Writer, level slog.Leveler, component string) *slog.Logger {
	l := slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
	if component != "" {
		l = l.With(slog.String("component", component))
	}
	return l
}
