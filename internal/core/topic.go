package core

import (
	"fmt"
	"strings"
)

// MaxTopicLevels is the maximum depth of the sensor hierarchy. The
// 128-bit SID reserves 16 bits per level, so eight levels fit exactly
// (e.g. room / system / rack / chassis / node / cpu / core / metric).
const MaxTopicLevels = 8

// ParseTopic splits a sensor MQTT topic into its hierarchy components.
// Topics look like file-system paths: "/lrz/cm3/r01/c02/n03/power".
// A leading slash is optional; empty components are rejected.
func ParseTopic(topic string) ([]string, error) {
	t := strings.TrimPrefix(topic, "/")
	if t == "" {
		return nil, fmt.Errorf("empty topic")
	}
	parts := strings.Split(t, "/")
	if len(parts) > MaxTopicLevels {
		return nil, fmt.Errorf("topic has %d levels, maximum is %d", len(parts), MaxTopicLevels)
	}
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("topic %q contains an empty level", topic)
		}
		if strings.ContainsAny(p, "#+") {
			return nil, fmt.Errorf("topic %q contains wildcard characters", topic)
		}
	}
	return parts, nil
}

// JoinTopic assembles hierarchy components into a canonical topic with a
// leading slash.
func JoinTopic(parts []string) string {
	return "/" + strings.Join(parts, "/")
}

// CanonicalTopic normalizes a topic to the leading-slash form used as
// map key throughout DCDB.
func CanonicalTopic(topic string) (string, error) {
	parts, err := ParseTopic(topic)
	if err != nil {
		return "", err
	}
	return JoinTopic(parts), nil
}
