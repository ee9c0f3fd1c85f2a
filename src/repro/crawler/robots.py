"""robots.txt handling.

Large-scale crawls are expected to honour robots exclusion rules.  The
synthetic origins rarely publish a robots.txt (they answer 404), in which
case everything is allowed — the same default real crawlers use — but the
parser implements the subset of the robots exclusion protocol needed to
behave correctly when one is present:

* ``User-agent`` groups, with ``*`` as fallback;
* ``Disallow`` and ``Allow`` rules with longest-match precedence, including
  the ``*`` (any run of characters) and trailing ``$`` (end anchor) pattern
  operators real-world robots files rely on;
* ``Crawl-delay``, parsed per group and reported by
  :meth:`RobotsPolicy.crawl_delay`.

:class:`~repro.crawler.session.CrawlSession` fetches each host's robots.txt
once, keeps the parsed policy for the session, and checks every page
against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


def _compile_rule(pattern: str) -> re.Pattern:
    """Compile one Allow/Disallow pattern into an anchored-prefix regex.

    ``*`` matches any run of characters, a trailing ``$`` anchors the match
    at the end of the path; everything else is literal.  The compiled regex
    matches from the start of the path (robots rules are path prefixes).
    """
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(part) for part in pattern.split("*")]
    return re.compile(".*".join(parts) + ("$" if anchored else ""))


@dataclass
class RuleGroup:
    """Rules applying to one set of user agents."""

    user_agents: list[str] = field(default_factory=list)
    allows: list[str] = field(default_factory=list)
    disallows: list[str] = field(default_factory=list)
    crawl_delay: float | None = None

    def applies_to(self, user_agent: str) -> bool:
        agent = user_agent.lower()
        return any(pattern == "*" or pattern in agent for pattern in self.user_agents)


@dataclass
class RobotsPolicy:
    """A parsed robots.txt, queryable per user agent and path."""

    groups: list[RuleGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rule_cache: dict[str, re.Pattern] = {}

    @classmethod
    def allow_all(cls) -> "RobotsPolicy":
        """The policy used when no robots.txt is served (or it is empty)."""
        return cls(groups=[])

    def _group_for(self, user_agent: str) -> RuleGroup | None:
        specific = [group for group in self.groups
                    if group.applies_to(user_agent) and "*" not in group.user_agents]
        if specific:
            return specific[0]
        wildcard = [group for group in self.groups if "*" in group.user_agents]
        return wildcard[0] if wildcard else None

    def _matches(self, rule: str, path: str) -> bool:
        compiled = self._rule_cache.get(rule)
        if compiled is None:
            compiled = self._rule_cache[rule] = _compile_rule(rule)
        return compiled.match(path) is not None

    def can_fetch(self, user_agent: str, path: str) -> bool:
        """Whether ``user_agent`` may fetch ``path``.

        Longest-match wins between Allow and Disallow (rule length measures
        specificity, wildcards included, as in Google's reference
        implementation); an empty Disallow pattern means "allow everything"
        per the protocol.
        """
        group = self._group_for(user_agent)
        if group is None:
            return True
        best_allow = max((len(rule) for rule in group.allows
                          if rule and self._matches(rule, path)), default=-1)
        best_disallow = max((len(rule) for rule in group.disallows
                             if rule and self._matches(rule, path)), default=-1)
        return best_allow >= best_disallow

    def crawl_delay(self, user_agent: str) -> float | None:
        group = self._group_for(user_agent)
        return group.crawl_delay if group else None


def parse_robots_txt(content: str) -> RobotsPolicy:
    """Parse robots.txt ``content`` into a :class:`RobotsPolicy`.

    The parser is forgiving: unknown directives are ignored, and malformed
    lines never raise — a broken robots.txt should not break the crawl.
    """
    policy = RobotsPolicy()
    current: RuleGroup | None = None
    last_directive_was_agent = False
    for raw_line in content.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        directive, _, value = line.partition(":")
        directive = directive.strip().lower()
        value = value.strip()
        if directive == "user-agent":
            if current is None or not last_directive_was_agent:
                current = RuleGroup()
                policy.groups.append(current)
            current.user_agents.append(value.lower())
            last_directive_was_agent = True
            continue
        last_directive_was_agent = False
        if current is None:
            continue
        if directive == "disallow":
            if value:
                current.disallows.append(value)
            continue
        if directive == "allow":
            if value:
                current.allows.append(value)
            continue
        if directive == "crawl-delay":
            try:
                current.crawl_delay = float(value)
            except ValueError:
                pass
    return policy

