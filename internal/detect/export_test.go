package detect

import "fmt"

// String renders the monitor's window and alert counts.
func (m *Monitor) String() string {
	return fmt.Sprintf("detector: %d/%d suspicious windows, %d alert(s)",
		m.suspicious, m.windows, m.alerts)
}
