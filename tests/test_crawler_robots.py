"""Tests for robots.txt handling (repro.crawler.robots)."""

from __future__ import annotations

import pytest

from repro.crawler.robots import RobotsPolicy, parse_robots_txt


SIMPLE = """
# comments are ignored
User-agent: *
Disallow: /private/
Allow: /private/press/
Crawl-delay: 2.5

User-agent: langcruxbot
Disallow: /no-langcrux/
"""


class TestParsing:
    def test_groups_parsed(self) -> None:
        policy = parse_robots_txt(SIMPLE)
        assert len(policy.groups) == 2

    def test_crawl_delay_parsed(self) -> None:
        policy = parse_robots_txt(SIMPLE)
        assert policy.crawl_delay("SomeBot/1.0") == 2.5

    def test_malformed_lines_ignored(self) -> None:
        policy = parse_robots_txt("User-agent *\nDisallow /x\nnonsense line\nUser-agent: *\nDisallow: /y/")
        assert policy.can_fetch("bot", "/x") is True
        assert policy.can_fetch("bot", "/y/page") is False

    def test_empty_content_allows_everything(self) -> None:
        policy = parse_robots_txt("")
        assert policy.can_fetch("bot", "/anything")

    def test_invalid_crawl_delay_ignored(self) -> None:
        policy = parse_robots_txt("User-agent: *\nCrawl-delay: soon\nDisallow: /x/")
        assert policy.crawl_delay("bot") is None

    def test_multiple_agents_per_group(self) -> None:
        policy = parse_robots_txt("User-agent: a\nUser-agent: b\nDisallow: /z/")
        assert not policy.can_fetch("a-bot", "/z/1")
        assert not policy.can_fetch("b-bot", "/z/1")


class TestMatching:
    def test_wildcard_group_applies_to_unknown_agents(self) -> None:
        policy = parse_robots_txt(SIMPLE)
        assert not policy.can_fetch("RandomBot", "/private/data")
        assert policy.can_fetch("RandomBot", "/public/")

    def test_allow_overrides_disallow_with_longer_match(self) -> None:
        policy = parse_robots_txt(SIMPLE)
        assert policy.can_fetch("RandomBot", "/private/press/release.html")

    def test_specific_agent_group_preferred(self) -> None:
        policy = parse_robots_txt(SIMPLE)
        assert not policy.can_fetch("LangCruxBot/1.0", "/no-langcrux/x")
        # The specific group has no /private/ rule, so it is allowed there.
        assert policy.can_fetch("LangCruxBot/1.0", "/private/data")

    def test_allow_all_policy(self) -> None:
        policy = RobotsPolicy.allow_all()
        assert policy.can_fetch("any", "/path")
        assert policy.crawl_delay("any") is None


class TestMalformedContent:
    """A broken robots.txt must never break the crawl."""

    def test_rules_before_any_user_agent_are_ignored(self) -> None:
        policy = parse_robots_txt("Disallow: /early/\nUser-agent: *\nDisallow: /late/")
        assert policy.can_fetch("bot", "/early/x")
        assert not policy.can_fetch("bot", "/late/x")

    def test_binary_garbage_parses_to_allow_all(self) -> None:
        policy = parse_robots_txt("\x00\x01\xff\nnot a directive\n::\n:")
        assert policy.can_fetch("bot", "/anything")

    def test_unknown_directives_are_skipped(self) -> None:
        policy = parse_robots_txt(
            "User-agent: *\nSitemap: https://x/s.xml\nNoindex: /a\nDisallow: /b/")
        assert policy.can_fetch("bot", "/a")
        assert not policy.can_fetch("bot", "/b/page")

    def test_whitespace_and_case_are_forgiven(self) -> None:
        policy = parse_robots_txt("  USER-AGENT :  *  \n  DISALLOW :  /x/  ")
        assert not policy.can_fetch("bot", "/x/page")

    def test_duplicate_directive_keeps_accumulating(self) -> None:
        policy = parse_robots_txt(
            "User-agent: *\nDisallow: /a/\nDisallow: /b/\nDisallow: /c/")
        for path in ("/a/1", "/b/1", "/c/1"):
            assert not policy.can_fetch("bot", path)

    def test_directive_with_colon_in_value(self) -> None:
        policy = parse_robots_txt("User-agent: *\nDisallow: /path:with:colons/")
        assert not policy.can_fetch("bot", "/path:with:colons/x")


class TestWildcardRules:
    def test_star_matches_any_run_of_characters(self) -> None:
        policy = parse_robots_txt("User-agent: *\nDisallow: /private/*/drafts/")
        assert not policy.can_fetch("bot", "/private/alice/drafts/x")
        assert not policy.can_fetch("bot", "/private/a/b/drafts/")
        assert policy.can_fetch("bot", "/private/alice/published/x")

    def test_star_suffix_pattern(self) -> None:
        policy = parse_robots_txt("User-agent: *\nDisallow: /*.php")
        assert not policy.can_fetch("bot", "/index.php")
        assert not policy.can_fetch("bot", "/deep/dir/page.php?x=1".split("?")[0])
        assert policy.can_fetch("bot", "/index.html")

    def test_dollar_anchors_at_end(self) -> None:
        policy = parse_robots_txt("User-agent: *\nDisallow: /*.pdf$")
        assert not policy.can_fetch("bot", "/report.pdf")
        assert policy.can_fetch("bot", "/report.pdf.html")

    def test_literal_rules_still_match_as_prefixes(self) -> None:
        policy = parse_robots_txt("User-agent: *\nDisallow: /private/")
        assert not policy.can_fetch("bot", "/private/deep/path")
        assert policy.can_fetch("bot", "/public/")

    def test_regex_metacharacters_are_literal(self) -> None:
        policy = parse_robots_txt("User-agent: *\nDisallow: /a+b(c)/")
        assert not policy.can_fetch("bot", "/a+b(c)/x")
        assert policy.can_fetch("bot", "/aab(c)/x")

    def test_wildcard_allow_beats_shorter_disallow(self) -> None:
        policy = parse_robots_txt(
            "User-agent: *\nDisallow: /shop/\nAllow: /shop/*/public/")
        assert policy.can_fetch("bot", "/shop/books/public/x")
        assert not policy.can_fetch("bot", "/shop/books/private/x")


class TestCrawlDelayParsing:
    def test_fractional_and_integer_delays(self) -> None:
        assert parse_robots_txt("User-agent: *\nCrawl-delay: 0.25").crawl_delay("b") == 0.25
        assert parse_robots_txt("User-agent: *\nCrawl-delay: 10").crawl_delay("b") == 10.0

    def test_delay_is_per_group(self) -> None:
        policy = parse_robots_txt(
            "User-agent: fastbot\nCrawl-delay: 1\n\nUser-agent: *\nCrawl-delay: 30")
        assert policy.crawl_delay("FastBot/2.0") == 1.0
        assert policy.crawl_delay("otherbot") == 30.0

    def test_garbage_delay_values_are_dropped(self) -> None:
        for value in ("soon", "", "1.2.3", "NaN seconds"):
            policy = parse_robots_txt(f"User-agent: *\nCrawl-delay: {value}\nDisallow: /x/")
            assert policy.crawl_delay("bot") is None
            assert not policy.can_fetch("bot", "/x/1")  # group still parsed

